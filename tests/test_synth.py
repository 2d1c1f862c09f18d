import numpy as np
import pytest

import rse_lab as r
from rse_lab.decoder import WindowDecoder
from rse_lab.synth import _cold_start_plan, _roll_forward

from conftest import single_injection_attack


def run_and_check_stealth(model, plan, noise, policy=None, horizon=None):
    K = plan.compromised
    tr = r.run_closed_loop(model, horizon or plan.horizon - model.N + 1, noise,
                           compromised=K, attack=plan.as_callable(), policy=policy)
    assert not tr.violations
    return tr


def test_single_step_attack_stable_two_state(stable_two_state):
    K = r.SensorSet.all(1)
    att = r.single_step_attack(stable_two_state, K, 5.0)
    x0 = np.array([0.3, 0.7])
    res = r.decode(stable_two_state, stable_two_state.O_full() @ x0 + att)
    assert res.support == r.SensorSet.empty(1)
    assert res.error_against(x0) == pytest.approx(5.0, abs=1e-9)
    assert np.allclose(r.single_step_attack(stable_two_state, K, 0.0), 0.0)


def test_single_step_attack_refuses_observable(vtf):
    with pytest.raises(r.NotPerfectlyAttackable):
        r.single_step_attack(vtf, r.SensorSet.empty(3), 1.0)


def test_single_step_attack_vtf_error_floor(vtf):
    K = r.SensorSet.all(3)
    att = r.single_step_attack(vtf, K, 50.0)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=0)
    vP, vM = noise.draw(2, 2, 3)
    x0 = np.array([0.5, -0.5])
    w = np.stack([vM[0], vM[1] + vtf.C @ vP[0]]).T.ravel()
    y = vtf.O_full() @ x0 + w
    res = r.decode(vtf, y + att)
    assert res.support == r.SensorSet.empty(3)
    floor = 50.0 - vtf.O_pinv_norm() * 2 * np.sqrt(2) * vtf.delta_w
    assert res.error_against(x0) >= floor


def test_stealth_slack_formula():
    assert r.stealth_slack([0.0], 0.1, 4) == pytest.approx(0.2)
    radius = np.sqrt(4) * 0.1
    assert r.stealth_slack([radius], 0.1, 4) == pytest.approx(radius)
    assert r.stealth_slack([0.05, 0.1], 0.1, 4) == pytest.approx(radius - 0.1)
    assert r.stealth_slack([0.0], 0.0, 4) == 0.0
    with pytest.raises(r.ConfigError):
        r.stealth_slack([1.0], 0.1, 4)


def test_stealth_slack_matches_recomputation(vtf):
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=8)
    vP, vM = noise.draw(10, 2, 3)
    norms = []
    for s in range(6):
        w = np.stack([vM[s], vM[s + 1] + vtf.C @ vP[s]]).T.ravel()
        norms.append(np.linalg.norm(w))
    got = r.stealth_slack(norms, vtf.delta_w, vtf.N)
    assert got == pytest.approx(np.sqrt(2) * vtf.delta_w - max(norms))


def test_single_injection_plan(stable_two_state):
    plan = single_injection_attack(stable_two_state, 1.0)
    assert plan.offset == -1
    assert np.allclose(plan.entries.ravel(), [0.0, 1.0, 0.0])
    assert np.allclose(plan.at(5), 0.0)
    with pytest.raises(r.NotPerfectlyAttackable):
        single_injection_attack(r.vtf_model(), 1.0)


def test_single_injection_decodes(stable_two_state):
    s = 100.0
    plan = single_injection_attack(stable_two_state, s)
    dec = WindowDecoder(stable_two_state)
    x = {-1: np.array([0.2, -0.4])}
    for t in (-1, 0, 1):
        x[t + 1] = stable_two_state.A @ x[t]
    for t, expected in ((-1, np.array([0.0, s])), (0, np.array([s, -0.3 * s]))):
        y = np.array([(stable_two_state.C @ x[t])[0] + plan.at(t)[0],
                      (stable_two_state.C @ x[t + 1])[0] + plan.at(t + 1)[0]])
        res = dec.decode(y)
        assert res.support == r.SensorSet.empty(1)
        assert np.allclose(res.x_hat - x[t], expected, atol=1e-9)
        assert np.linalg.norm(res.a_hat) == 0.0
    # norm form of the fixture: ||dx(0)|| = s sqrt(1 + .09)
    assert np.linalg.norm([s, -0.3 * s]) == pytest.approx(s * np.sqrt(1.09))


def test_sustained_vtf_stealthy_and_growing(vtf):
    K = r.SensorSet.all(3)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=11)
    plan = r.sustained_attack(vtf, K, detector="II", horizon=1500, noise=noise)
    tr = run_and_check_stealth(vtf, plan, noise, horizon=1500)
    assert tr.alarm_counts() == (0, 0)
    assert tr.err_norm[-1] > 100 * 0.0789
    assert tr.innovation.max() <= tr.threshold_d


def test_sustained_error_tracks_generator_state(vtf):
    # in the sustained phase the estimation error follows the attacker state
    # within the attack-free error bound
    K = r.SensorSet.all(3)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=13)
    plan = r.sustained_attack(vtf, K, detector="II", horizon=800, noise=noise)
    tr = r.run_closed_loop(vtf, 800, noise, compromised=K, attack=plan.as_callable())
    slack = vtf.O_pinv_norm() * 2 * np.sqrt(2) * vtf.delta_w
    err_vec = tr.x_hat - tr.x
    for t in range(0, 800, 50):
        z = plan.zeta[t]
        assert np.linalg.norm(err_vec[t] - z) <= slack + 1e-6


def test_sustained_window_consistency(vtf):
    # overlapping stacked windows agree entry-by-entry (the per-step sequence
    # is single-valued) and each sustained window equals O zeta exactly
    K = r.SensorSet.all(3)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=2)
    plan = r.sustained_attack(vtf, K, detector="II", horizon=300, noise=noise,
                              period=3)
    O = vtf.O_full()
    inj_times = {t for t, _ in plan.injections}
    for t in range(5, 295):
        w0 = plan.stacked_window(t, 2)
        w1 = plan.stacked_window(t + 1, 2)
        assert w0[1::2][0] == w1[0::2][0]  # shared step, sensor 1
        assert np.array_equal(w0[1::2], w1[0::2])
        if t + 1 not in inj_times:  # no fresh injection inside this window
            assert np.allclose(w0, O @ plan.zeta[t], atol=1e-10)


def test_sustained_refuses_stable_full_rank(stable_two_state_n3):
    with pytest.raises(r.NotPerfectlyAttackable):
        r.sustained_attack(stable_two_state_n3, r.SensorSet.all(1), detector="I",
                           horizon=100, noise=r.NoiseSpec.zero())


def test_sustained_refuses_detector2_on_stable(stable_two_state):
    with pytest.raises(r.NotPerfectlyAttackable):
        r.sustained_attack(stable_two_state, r.SensorSet.all(1), detector="II",
                           horizon=100, noise=r.NoiseSpec.zero())


def test_sustained_rejects_bad_period_and_epsilon(vtf, stable_two_state):
    # a period below 1 once built the period-1 ramp, and a negative epsilon
    # refused with a message that blamed the noise slack
    K = r.SensorSet.all(3)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=2)
    for period in (0, -4):
        with pytest.raises(r.ConfigError, match="period must be >= 1"):
            r.sustained_attack(vtf, K, detector="II", horizon=300, noise=noise,
                               period=period)
    for eps in (-1.0, float("nan")):
        with pytest.raises(r.ConfigError, match="epsilon must be >= 0"):
            r.sustained_attack(vtf, K, detector="II", horizon=300, noise=noise,
                               epsilon=eps)
    # the cold start reads epsilon as an injection norm
    with pytest.raises(r.ConfigError, match="epsilon must be >= 0"):
        r.sustained_attack(stable_two_state, r.SensorSet.all(1), detector="I",
                           horizon=300, epsilon=-5.0)


def test_cold_start_construction(stable_two_state):
    K = r.SensorSet.all(1)
    plan = r.sustained_attack(stable_two_state, K, detector="I", horizon=300,
                              epsilon=1000.0)
    assert plan.entries[0, 0] == 0.0  # a(-1)-analogue: zero before the start
    tr = r.run_closed_loop(stable_two_state, 300, r.NoiseSpec.zero(), compromised=K,
                           attack=plan.as_callable())
    assert int(np.sum(tr.alarm_id1)) == 0
    assert tr.max_error() >= 1000.0
    # null-space drive keeps the error large despite the stable plant
    assert tr.err_norm[-1] >= 1000.0


def test_cold_start_growth_reaches_any_bound(stable_two_state):
    K = r.SensorSet.all(1)
    plan = r.sustained_attack(stable_two_state, K, detector="I", horizon=2500,
                              epsilon=10.0)
    tr = r.run_closed_loop(stable_two_state, 2500, r.NoiseSpec.zero(), compromised=K,
                           attack=plan.as_callable())
    assert int(np.sum(tr.alarm_id1)) == 0
    for M in (10.0, 100.0, 1000.0):
        assert tr.err_norm.max() > M
    # monotone-ish growth: the crossing order matches the magnitudes
    t10 = int(np.argmax(tr.err_norm > 10))
    t1000 = int(np.argmax(tr.err_norm > 1000))
    assert t10 <= t1000


def test_sawtooth_resets_and_bounded(vtf):
    K = r.SensorSet.all(3)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=21)
    pol = r.AuthPolicy.periodic([1, 2], 10, 3)
    plan = r.sustained_attack(vtf, K, detector="II", horizon=1200, noise=noise,
                              policy=pol)
    for t in range(0, 1200, 10):
        assert plan.at(t)[0] == 0.0 and plan.at(t)[1] == 0.0
    tr = run_and_check_stealth(vtf, plan, noise, policy=pol, horizon=1200)
    assert tr.alarm_counts() == (0, 0)
    assert tr.max_error() < 1.0
    assert tr.max_error() > 0.0789  # bounded, yet clearly above attack-free error


def test_plan_csv_roundtrip(vtf):
    K = r.SensorSet.all(3)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=1)
    plan = r.sustained_attack(vtf, K, detector="II", horizon=50, noise=noise)
    text = plan.to_csv()
    back = r.AttackPlan.from_csv(text, K, "II")
    assert back.offset == plan.offset
    assert np.allclose(back.entries, plan.entries, atol=1e-10)


def test_single_injection_zero_scalar_no_effect(stable_two_state):
    plan = single_injection_attack(stable_two_state, 0.0)
    assert not plan.entries.any()
    tr = r.run_closed_loop(stable_two_state, 30, r.NoiseSpec.zero(),
                           compromised=r.SensorSet.all(1),
                           attack=plan.as_callable())
    assert tr.max_error() <= 1e-9


def test_sustained_complex_unstable_pair():
    # complex unstable pair: the witness is a real invariant 2-plane and the
    # injected components rotate while growing geometrically
    rot = 1.05 * np.array([[np.cos(.3), -np.sin(.3)], [np.sin(.3), np.cos(.3)]])
    m = r.SystemModel(A=rot, B=None, C=np.eye(2), delta_w=0.12, N=2,
                      delta_vp=0.02 * np.sqrt(2), delta_vm=0.02 * np.sqrt(2))
    K = r.SensorSet.all(2)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.02, hi=.02, seed=5)
    plan = r.sustained_attack(m, K, detector="II", horizon=500, noise=noise)
    tr = r.run_closed_loop(m, 500, noise, compromised=K, attack=plan.as_callable())
    assert tr.alarm_counts() == (0, 0)
    assert tr.max_error() > 1e6


def test_sustained_complex_partial_compromise():
    # clean sensor reads only the stable mode; the rotating unstable plane is
    # invisible to it, and the plan never touches the clean channel
    rot = 1.04 * np.array([[np.cos(.4), -np.sin(.4)], [np.sin(.4), np.cos(.4)]])
    A = np.zeros((3, 3))
    A[:2, :2] = rot
    A[2, 2] = 0.5
    m = r.SystemModel(A=A, B=None, C=np.eye(3), delta_w=0.12, N=3,
                      delta_vp=.02 * np.sqrt(3), delta_vm=.02 * np.sqrt(3))
    K = r.SensorSet.of([1, 2], 3)
    assert r.pa_over_time_id2(m, K).attackable
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.02, hi=.02, seed=9)
    plan = r.sustained_attack(m, K, detector="II", horizon=500, noise=noise)
    assert not plan.entries[:, 2].any()
    tr = r.run_closed_loop(m, 500, noise, compromised=K, attack=plan.as_callable())
    assert tr.alarm_counts() == (0, 0)
    assert tr.max_error() > 1e4


def test_sustained_depth3_chain():
    A3 = np.array([[1., .01, 0.], [0., 1., .01], [0., 0., 1.]])
    m3 = r.SystemModel(A=A3, B=None, C=np.eye(3), delta_w=0.2, N=3,
                       delta_vp=.02 * np.sqrt(3), delta_vm=.02 * np.sqrt(3))
    K3 = r.SensorSet.all(3)
    lam, chain = r.unstable_chain(m3, K3)
    assert lam == pytest.approx(1.0) and len(chain) == 3
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.02, hi=.02, seed=6)
    plan = r.sustained_attack(m3, K3, detector="II", horizon=900, noise=noise)
    tr = r.run_closed_loop(m3, 900, noise, compromised=K3, attack=plan.as_callable())
    assert tr.alarm_counts() == (0, 0)
    assert tr.max_error() > 100


def test_sawtooth_with_phase_shifted_policy(vtf):
    K = r.SensorSet.all(3)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=14)
    pol = r.AuthPolicy.periodic([1, 2], 10, 3, phase=3)
    plan = r.sustained_attack(vtf, K, detector="II", horizon=800, noise=noise,
                              policy=pol)
    for t in range(3, 800, 10):
        assert plan.at(t)[0] == 0.0 and plan.at(t)[1] == 0.0
    tr = r.run_closed_loop(vtf, 800, noise, compromised=K,
                           attack=plan.as_callable(), policy=pol)
    assert tr.alarm_counts() == (0, 0) and not tr.violations


def test_cold_start_windows_exact_null_space_form(stable_two_state):
    # every window of the cold-start plan is exactly O zeta(t): the null-space
    # drive injected inside a window vanishes on all its rows
    K = r.SensorSet.all(1)
    plan = r.sustained_attack(stable_two_state, K, detector="I", horizon=60,
                              epsilon=50.0)
    O = stable_two_state.O_full()
    for t in range(1, 55):
        w = plan.stacked_window(t, 2)
        assert np.allclose(w, O @ plan.zeta[t], atol=1e-9 * 50)


def test_constructive_cross_check_random_systems():
    # whenever the over-time verdict is positive, the synthesized plan grows
    # the error while the targeted detector stays silent, end to end
    from conftest import random_observable_model
    rng = np.random.default_rng(2024)
    tested = 0
    attempts = 0
    while tested < 25 and attempts < 2000:
        attempts += 1
        m = random_observable_model(rng, noise_hw=0.02,
                                    weighted=bool(rng.integers(2)))
        K_size = int(rng.integers(1, m.p + 1))
        K = r.SensorSet.of(rng.choice(np.arange(1, m.p + 1), size=K_size,
                                      replace=False), m.p)
        if not r.pa_over_time_id2(m, K).attackable:
            continue
        radius = float(max(np.abs(np.linalg.eigvals(m.A))))
        horizon = int(np.clip(np.log(1e5) / np.log(max(radius, 1.001)), 60, 1200))
        noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.02, hi=.02,
                            seed=int(rng.integers(2 ** 31)))
        try:
            plan = r.sustained_attack(m, K, detector="II", horizon=horizon,
                                      noise=noise)
        except r.NotPerfectlyAttackable:
            continue
        tr = r.run_closed_loop(m, horizon, noise, compromised=K,
                               attack=plan.as_callable())
        assert tr.alarm_counts() == (0, 0), (m.n, m.p, tuple(K.indices))
        assert not tr.violations
        floor = 5 * m.O_pinv_norm() * 2 * np.sqrt(m.N) * m.delta_w
        assert tr.max_error() > floor, (m.n, m.p, tuple(K.indices))
        tested += 1
    assert tested == 25


def test_roll_forward_refuses_leaks_under_each_tolerance(vtf):
    # sensor 3 reads the velocity, so a velocity component leaks onto it
    K12 = r.SensorSet.of([1, 2], 3)

    def roll(first, atol, rtol):
        inj = np.zeros((6, 2))
        inj[1] = first
        return _roll_forward(vtf, K12, inj, [], atol, rtol, "test")

    # cold start: absolute 1e-6 max(1, eta), here eta = 1000
    entries, zeta = roll([0.0, 5e-4], 1e-3, 0.0)
    assert not entries[:, 2].any() and entries[1, 1] == 5e-4
    assert np.array_equal(zeta[2], vtf.A @ zeta[1])
    with pytest.raises(r.NotPerfectlyAttackable, match="test propagation leaks"):
        roll([0.0, 2e-3], 1e-3, 0.0)
    # ramp: relative 1e-9 max(1, ||C zeta||), so a large state hides a larger leak
    entries, _ = roll([1e4, 5e-6], 1e-9, 1e-9)
    assert not entries[:, 2].any()
    with pytest.raises(r.NotPerfectlyAttackable, match="leaks onto clean sensors"):
        roll([1e4, 2e-5], 1e-9, 1e-9)
    with pytest.raises(r.NotPerfectlyAttackable, match="leaks onto clean sensors"):
        roll([1.0, 5e-6], 1e-9, 1e-9)


def test_roll_forward_resets_sawtooth(vtf):
    K = r.SensorSet.all(3)
    inj = np.zeros((10, 2))
    inj[2] = [0.0, 1.0]
    inj[4] = [-0.02, -1.0 + 1e-9]  # returns the state to (almost) zero at t = 5
    entries, zeta = _roll_forward(vtf, K, inj, [5], 1e-9, 1e-9, "ramped")
    assert not zeta[5:].any() and not entries[5:].any()
    assert zeta[4].any()
    inj[4] = [0.0, -0.5]
    with pytest.raises(r.NotPerfectlyAttackable,
                       match="failed to reset the attacker state at enforcement time t=5"):
        _roll_forward(vtf, K, inj, [5], 1e-9, 1e-9, "ramped")


def test_cold_start_refuses_entries_before_start(vtf):
    # a direction outside null(F) shows up on the sensors before t0
    F = np.zeros((1, 2))
    with pytest.raises(r.NotPerfectlyAttackable,
                       match=r"nonzero at t=4, before its start t0=5"):
        _cold_start_plan(vtf, r.SensorSet.all(3), F, 20, 10.0, 5)
