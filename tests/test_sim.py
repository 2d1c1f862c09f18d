import numpy as np
import pytest

import rse_lab as r
from rse_lab.config import make_reference
from rse_lab.decoder import WindowDecoder
from rse_lab.sim import _forced_response_rows, _windows

from conftest import random_observable_model


def test_step_examples(stable_two_state, vtf):
    nxt, y = r.step(stable_two_state, [1.0, 0.0], [0.0], np.zeros(2), np.zeros(1))
    assert np.allclose(nxt, [0.3, 0.0])
    assert np.allclose(y, [1.0])
    nxt, _ = r.step(vtf, [0.0, 1.0], [0.0], np.zeros(2), np.zeros(3))
    assert np.allclose(nxt, [0.01, 1.0])
    with pytest.raises(r.ConfigError):
        r.step(vtf, [0.0, 1.0, 2.0], [0.0], np.zeros(2), np.zeros(3))


def test_noise_spec_bounds_and_determinism():
    spec = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=9)
    vP1, vM1 = spec.draw(500, 2, 3)
    vP2, vM2 = spec.draw(500, 2, 3)
    assert np.array_equal(vP1, vP2) and np.array_equal(vM1, vM2)
    assert np.all(np.linalg.norm(vP1, axis=1) <= spec.delta_vp(2) + 1e-12)
    assert np.all(np.linalg.norm(vM1, axis=1) <= spec.delta_vm(3) + 1e-12)
    ball = r.NoiseSpec(kind="ball", radius_p=.1, radius_m=.2, seed=4)
    vP, vM = ball.draw(500, 3, 2)
    assert np.all(np.linalg.norm(vP, axis=1) <= .1 + 1e-12)
    assert np.all(np.linalg.norm(vM, axis=1) <= .2 + 1e-12)
    z = r.NoiseSpec.zero()
    vP, vM = z.draw(10, 2, 2)
    assert not vP.any() and not vM.any()


def test_apply_attack_cases():
    K = r.SensorSet.of([1, 2, 3], 3)
    y = np.array([1.0, 2.0, 3.0])
    out = r.apply_attack(y, np.zeros(3), K, r.SensorSet.empty(3))
    assert np.allclose(out.y_delivered, y) and out.violated == ()
    out = r.apply_attack(y, np.array([1, 2, 3.0]), K, r.SensorSet.empty(3))
    assert np.allclose(out.y_delivered, [2, 4, 6.0])
    out = r.apply_attack(y, np.array([1, 0, 0.0]), r.SensorSet.of([1], 3),
                         r.SensorSet.of([1], 3))
    assert out.violated == (1,)
    assert np.allclose(out.y_delivered, y)  # enforcement zeroes the entry
    with pytest.raises(r.ConfigError):
        r.apply_attack(y, np.array([0, 1.0, 0]), r.SensorSet.of([1], 3),
                       r.SensorSet.empty(3))


def test_auth_policy_schedules():
    pol = r.AuthPolicy.periodic([1, 3], 10, 4, phase=2)
    assert pol.authenticated(1, 2) and pol.authenticated(3, 12)
    assert not pol.authenticated(1, 3) and not pol.authenticated(2, 2)
    assert pol.auth_set(12).indices == (1, 3)
    assert pol.common_period(r.SensorSet.of([1, 3], 4)) == 10
    assert pol.common_period(r.SensorSet.of([1, 2], 4)) is None
    exp = r.AuthPolicy.explicit({2: [5, 9, 14]}, 4)
    assert exp.authenticated(2, 9) and not exp.authenticated(2, 10)
    with pytest.raises(r.ConfigError):
        r.AuthPolicy.explicit({1: [3, 3]}, 2)
    with pytest.raises(r.ConfigError):
        r.AuthPolicy.periodic([1], 0, 2)


def test_replay_determinism(vtf):
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=77)
    K = r.SensorSet.all(3)
    t1 = r.run_closed_loop(vtf, 400, noise, compromised=K)
    t2 = r.run_closed_loop(vtf, 400, noise, compromised=K)
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.x_hat, t2.x_hat)
    assert t1.to_csv() == t2.to_csv()


def test_noiseless_exact_recovery(stable_two_state):
    tr = r.run_closed_loop(stable_two_state, 50, r.NoiseSpec.zero(),
                           x0=np.array([1.0, -2.0]))
    assert tr.max_error() <= 1e-9
    assert tr.alarm_counts() == (0, 0)


def test_known_input_compensation_exact(vtf):
    # nonzero control & reference, zero noise: decoded state matches exactly
    ref = r.ScenarioConfig(model=vtf, noise=r.NoiseSpec.zero(),
                           compromised=r.SensorSet.empty(3), dt=0.01,
                           reference={"kind": "circle", "radius": 5.0,
                                      "angular_rate": 0.2}).reference_fn()
    tr = r.run_closed_loop(vtf, 300, r.NoiseSpec.zero(),
                           controller_gain=np.array([[500.0, 40.0]]),
                           reference=ref, x0=np.array([5.0, 0.0]))
    assert tr.max_error() <= 1e-8
    assert np.abs(tr.u).max() > 0  # the loop genuinely actuated


def test_controller_tracks_reference(vtf):
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=5)
    ref = r.ScenarioConfig(model=vtf, noise=noise,
                           compromised=r.SensorSet.empty(3), dt=0.01,
                           reference={"kind": "circle", "radius": 10.0,
                                      "angular_rate": 0.1}).reference_fn()
    tr = r.run_closed_loop(vtf, 3000, noise,
                           controller_gain=np.array([[500.0, 40.0]]),
                           reference=ref, x0=np.array([10.0, 0.0]))
    t = np.arange(3000)
    ref_pos = 10.0 * np.cos(0.1 * t * 0.01)
    track_err = np.abs(tr.x[:, 0] - ref_pos)
    assert track_err[500:].max() < 0.5


def test_authentication_soundness(vtf):
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=3)
    K = r.SensorSet.all(3)
    pol = r.AuthPolicy.periodic([1, 2], 10, 3)
    plan = r.sustained_attack(vtf, K, detector="II", horizon=2000, noise=noise,
                              policy=pol)
    tr = r.run_closed_loop(vtf, 2000, noise, compromised=K,
                           attack=plan.as_callable(), policy=pol)
    assert not tr.violations
    for t in range(2000):
        if t % 10 == 0:
            assert tr.attack[t, 0] == 0.0 and tr.attack[t, 1] == 0.0


def test_auth_violations_are_recorded(vtf):
    K = r.SensorSet.all(3)
    pol = r.AuthPolicy.periodic([1], 5, 3)
    bad_attack = lambda t: np.array([1.0, 0.0, 0.0])
    tr = r.run_closed_loop(vtf, 20, r.NoiseSpec.zero(), compromised=K,
                           attack=bad_attack, policy=pol)
    assert tr.violations and tr.violations[0][0] == 0


def test_trace_csv_schema(vtf):
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=1)
    tr = r.run_closed_loop(vtf, 5, noise, compromised=r.SensorSet.all(3),
                           policy=r.AuthPolicy.periodic([2], 2, 3))
    lines = tr.to_csv().strip().split("\n")
    assert lines[0] == ("t,x_1,x_2,xhat_1,xhat_2,err_norm,a_1,a_2,a_3,"
                        "alarm_id1,alarm_id2,auth_flags")
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert int(lines[1].split(",")[-1]) == 2  # sensor 2 authenticated at t=0
    assert int(lines[2].split(",")[-1]) == 0


def test_trace_window_view(vtf):
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=2)
    K = r.SensorSet.all(3)
    attack = lambda t: np.array([0.0, 0.01, 0.0]) if t == 3 else np.zeros(3)
    tr = r.run_closed_loop(vtf, 6, noise, compromised=K, attack=attack)
    w = tr.window(2)
    assert w.window_start == 2
    assert np.allclose(w.per_step(1), tr.y_delivered[3])
    assert w.a_stacked is not None and w.a_stacked[1 * 2 + 1] == 0.01  # sensor 2, slot 1
    with pytest.raises(r.ConfigError):
        tr.window(5)


def test_attack_under_control_stays_stealthy(vtf):
    # controller reacting to attack-induced estimate drift must not trip the
    # innovation check: the known input is compensated, as in the decoder
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=6)
    K = r.SensorSet.all(3)
    pol = r.AuthPolicy.periodic([1, 2], 10, 3)
    plan = r.sustained_attack(vtf, K, detector="II", horizon=3000, noise=noise,
                              policy=pol)
    ref = r.ScenarioConfig(model=vtf, noise=noise, compromised=K, dt=0.01,
                           reference={"kind": "circle", "radius": 10.0,
                                      "angular_rate": 0.1}).reference_fn()
    tr = r.run_closed_loop(vtf, 3000, noise, compromised=K,
                           attack=plan.as_callable(), policy=pol,
                           controller_gain=np.array([[500.0, 40.0]]),
                           reference=ref, x0=np.array([10.0, 0.0]))
    assert tr.alarm_counts() == (0, 0)
    assert tr.max_error() < 1.0


def _all_windows(tr, noise, attack):
    """Every window of a run, as rows of stacked vectors, assembled like the
    simulator does: the trace's own rows, then the N - 1 rows past the stored
    horizon, rebuilt from the noise streams with a plain per-step plant loop.
    The inputs past the horizon are not stored, so the run must not need
    them: zero inputs, or N = 2, where only u(H - 1) enters a rebuilt row."""
    m, H = tr.model, tr.horizon
    assert m.N == 2 or not tr.u.any()
    assert not tr.violations  # attack(t) is what was delivered
    T = H + m.N - 1
    vP, vM = noise.draw(T, m.n, m.p)
    u = np.vstack([tr.u, np.zeros((m.N - 1, m.m))])
    x = list(tr.x)
    while len(x) < T:
        x.append(m.A @ x[-1] + m.B @ u[len(x) - 1] + vP[len(x) - 1])
    y_del = np.array([m.C @ x[t] + vM[t] + (0.0 if attack is None else attack(t))
                      for t in range(T)])
    assert np.array_equal(y_del[:H], tr.y_delivered)  # same bits as the plant loop
    return _windows(y_del, u, _forced_response_rows(m))


def _assert_matches_per_window(tr, noise, attack=None):
    """The run (batched, or the feedback loop's inline fast path) agrees bit
    for bit with decoding every window one at a time."""
    dec = WindowDecoder(tr.model)
    results = [dec.decode(w) for w in _all_windows(tr, noise, attack)]
    assert np.array_equal(tr.x_hat, np.array([res.x_hat for res in results]))
    prev = None
    for s, res in enumerate(results):
        assert tr.supports[s] == res.support
        v = r.id2(res, prev, tr.model, known_input=tr.u[s - 1] if s else None)
        assert (tr.alarm_id1[s], tr.alarm_id2[s]) == (v.id1_alarm, v.id2_alarm)
        assert (tr.innovation[s] > tr.threshold_d) == (v.id2_innovation > v.threshold_d)
        prev = res
    assert tr.supports_tested == sum(res.stats.supports_tested for res in results)
    assert tr.oracle_iterations == sum(res.stats.oracle_iterations for res in results)
    assert tr.indeterminate == sum(res.stats.indeterminate > 0 for res in results)


def test_batched_run_matches_per_window_decoding(vtf, stable_two_state):
    K = r.SensorSet.all(3)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=20)
    _assert_matches_per_window(r.run_closed_loop(vtf, 2000, noise, compromised=K), noise)

    # C2: the stealthy sustained attack keeps every window on the empty support
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=23)
    plan = r.sustained_attack(vtf, K, detector="II", horizon=6000, noise=noise)
    tr = r.run_closed_loop(vtf, 6000, noise, compromised=K, attack=plan.as_callable())
    _assert_matches_per_window(tr, noise, plan.as_callable())
    assert tr.max_error() > 100 * 0.0789

    # a large constant injection on sensor 3: fallback windows decode {3}
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=4)
    attack = lambda t: np.array([0.0, 0.0, 50.0])
    tr = r.run_closed_loop(vtf, 300, noise, compromised=K, attack=attack)
    _assert_matches_per_window(tr, noise, attack)
    assert all(s.indices == (3,) for s in tr.supports)
    assert tr.alarm_counts() == (300, 300)

    # delta_w = 0 leaves no margin inside Omega: every window falls back
    tr = r.run_closed_loop(stable_two_state, 50, r.NoiseSpec.zero(), x0=np.array([1.0, -2.0]))
    _assert_matches_per_window(tr, r.NoiseSpec.zero())
    _, fallback = WindowDecoder(stable_two_state).decode_batch(
        np.stack([tr.window(s).y_stacked for s in range(tr.horizon - 1)]))
    assert sorted(fallback) == list(range(tr.horizon - 1))


def test_policy_mask_matches_schedule():
    pol = r.AuthPolicy({1: r.Periodic(4, 3), 3: frozenset({0, 5, 9, 40})}, 3)
    mask = pol.mask(20)
    assert mask.shape == (20, 3)
    for t in range(20):
        assert [i for i in (1, 2, 3) if mask[t, i - 1]] == list(pol.auth_set(t).indices)


def test_unstable_run_reports_precision_loss():
    # spectral radius 1.41: by t = 110 the states are near 1e15, and the
    # rounding of y (eps * ||y|| = 1.23 delta_w) breaks the attack-free bound
    # although the realized noise stays inside delta_w
    rng = np.random.default_rng(5)
    random_observable_model(rng, unstable=False)
    m = random_observable_model(rng, unstable=True)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-0.02, hi=0.02, seed=1)
    with pytest.raises(r.PrecisionLoss, match=r"t=110 .*states reach norm 9\.86e\+14"):
        r.sim.run_closed_loop(m, 300, noise, compromised=r.SensorSet.all(m.p))


def test_indeterminate_counts_windows(vtf, monkeypatch):
    # a fallback window with two indeterminate verdicts counts once, so exit
    # code 5's 1 % threshold compares windows with windows
    decode = WindowDecoder.decode

    def two_indeterminate(self, y):
        res = decode(self, y)
        res.stats.indeterminate += 2
        return res

    monkeypatch.setattr(WindowDecoder, "decode", two_indeterminate)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=4)
    attack = lambda t: np.array([0.0, 0.0, 50.0])
    tr = r.run_closed_loop(vtf, 40, noise, compromised=r.SensorSet.all(3), attack=attack)
    assert all(s.indices == (3,) for s in tr.supports)  # every window fell back
    assert tr.indeterminate == 40
    # windows accepted on the batched fast path carry no verdict to count
    tr = r.run_closed_loop(vtf, 40, noise, compromised=r.SensorSet.all(3))
    assert tr.indeterminate == 0


def _assert_control_law(tr, ref, gain):
    """Each input after the warm-up is the feedforward corrected by the gain
    times the error of the newest window's estimate, propagated to now with
    the known inputs: x(t) = A^{N-1} x_hat(s) + sum_j A^{N-2-j} B u(s+j)."""
    m = tr.model
    x_ref, u_ff = ref(np.arange(tr.horizon))
    for t in range(m.N - 1, tr.horizon):
        s = t - m.N + 1
        x_now = m.powers()[m.N - 1] @ tr.x_hat[s]
        for j in range(m.N - 1):
            x_now += m.powers()[m.N - 2 - j] @ m.B @ tr.u[s + j]
        assert np.array_equal(tr.u[t], u_ff[t] - gain @ (x_now - x_ref[t]))


def test_feedback_run_matches_per_window_decoding(vtf, monkeypatch):
    # the feedback loop tests each window on the decoder's fast path inline and
    # decodes only the windows that fail; every window must still get decode's
    # estimate, support and counters
    K = r.SensorSet.all(3)
    gain = np.array([[500.0, 40.0]])
    ref = make_reference(vtf, {"kind": "circle", "radius": 10.0, "angular_rate": 0.1}, 0.01)
    x0 = np.array([10.0, 0.0])

    # fig3: the stealthy ramp from t = 1000, without and with authentication of {1, 2}
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=7)
    errors = []
    for pol in (None, r.AuthPolicy.periodic([1, 2], 10, 3)):
        plan = r.sustained_attack(vtf, K, detector="II", horizon=3000, noise=noise,
                                  policy=pol, start=1000)
        tr = r.run_closed_loop(vtf, 3000, noise, compromised=K, attack=plan.as_callable(),
                               policy=pol, controller_gain=gain, reference=ref, x0=x0)
        _assert_matches_per_window(tr, noise, plan.as_callable())
        _assert_control_law(tr, ref, gain)
        assert tr.alarm_counts() == (0, 0)
        errors.append(tr.max_error())
    assert errors[0] > 10 * errors[1]

    # a large constant injection on sensor 3 from t = 100 on: from the window
    # anchored at 99 on, every window fails the fast path and decodes {3}
    decoded = []
    decode = WindowDecoder.decode

    def counting(self, y):
        decoded.append(1)
        return decode(self, y)

    monkeypatch.setattr(WindowDecoder, "decode", counting)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-.05, hi=.05, seed=4)
    attack = lambda t: np.array([0.0, 0.0, 50.0 if t >= 100 else 0.0])
    tr = r.run_closed_loop(vtf, 400, noise, compromised=K, attack=attack,
                           controller_gain=gain, reference=ref, x0=x0)
    assert len(decoded) == 301  # decode runs for the fallback windows only
    monkeypatch.undo()
    _assert_matches_per_window(tr, noise, attack)
    _assert_control_law(tr, ref, gain)
    assert [s.indices for s in tr.supports] == [()] * 99 + [(3,)] * 301
    assert int(tr.alarm_id1.sum()) == 301


def test_misshaped_attack_or_reference_raises_config_error(vtf):
    K = r.SensorSet.all(3)
    gain = np.array([[500.0, 40.0]])
    ref = make_reference(vtf, {"kind": "circle", "radius": 10.0, "angular_rate": 0.1}, 0.01)
    # 10 decoded steps run 11 measurement steps on the VTF model (N = 2, p = 3)
    for attack in (lambda t: np.zeros(4), lambda t: np.zeros(2),
                   lambda t: np.zeros(3 if t else 4)):
        with pytest.raises(r.ConfigError, match=r"attack.*shape \(11, 3\)"):
            r.run_closed_loop(vtf, 10, r.NoiseSpec.zero(), compromised=K, attack=attack)
    wide_x = lambda ts: (np.concatenate([ref(ts)[0], ref(ts)[0][..., :1]], axis=-1),
                         ref(ts)[1])
    with pytest.raises(r.ConfigError, match=r"x_ref.*shape \(11, 2\)"):
        r.run_closed_loop(vtf, 10, r.NoiseSpec.zero(), controller_gain=gain, reference=wide_x)
    one_step = lambda t: (np.zeros(2), np.zeros(1))  # ignores the array of steps
    with pytest.raises(r.ConfigError, match=r"x_ref.*shape \(11, 2\)"):
        r.run_closed_loop(vtf, 10, r.NoiseSpec.zero(), reference=one_step)
    two_inputs = lambda ts: (ref(ts)[0], np.zeros((len(ts), 2)))
    with pytest.raises(r.ConfigError, match=r"u_ff.*shape \(11, 1\)"):
        r.run_closed_loop(vtf, 10, r.NoiseSpec.zero(), reference=two_inputs)


@pytest.mark.parametrize("spec", [
    {"kind": "circle", "radius": 10.0, "angular_rate": 0.1},
    {"kind": "circle", "radius": 10.0, "angular_rate": 0.1, "phase": -np.pi / 2},
    {"kind": "sine", "radius": 3.0, "angular_rate": 0.7, "phase": 0.4},
], ids=["circle", "circle_phase", "sine"])
def test_reference_array_matches_per_step_calls(vtf, spec):
    T, dt = 700, 0.01
    ref = make_reference(vtf, spec, dt)
    x_ref, u_ff = ref(np.arange(T))
    steps = [ref(t) for t in range(T)]
    assert x_ref.shape == (T, 2) and u_ff.shape == (T, 1)
    assert np.array_equal(x_ref, np.array([xr for xr, _ in steps]))
    assert np.array_equal(u_ff, np.array([uf for _, uf in steps]))
    # one step still gives the vectors of the closed-form reference
    radius, rate, phase = spec["radius"], spec["angular_rate"], spec.get("phase", 0.0)

    def x_at(t):
        th = rate * t * dt + phase
        return np.array([radius * np.cos(th), -radius * rate * np.sin(th)])

    B_pinv = np.linalg.pinv(vtf.B)
    for t, (xr, uf) in enumerate(steps):
        assert np.array_equal(xr, x_at(t))
        assert np.array_equal(uf, B_pinv @ (x_at(t + 1) - vtf.A @ x_at(t)))
