import itertools
import json

import numpy as np
import pytest

import rse_lab as r
from rse_lab.attackability import report_to_json
from rse_lab.model import RANK_TOL, STABILITY_MARGIN

from conftest import random_observable_model
from oracles import (analyze_uncached, plan_outcome, policy_prevents_pa_uncached,
                     strict_report, sustained_attack_uncached)


def K_all(p):
    return r.SensorSet.all(p)


def test_pa_single_step_all_compromised(stable_two_state, vtf):
    ok, z = r.pa_single_step(stable_two_state, K_all(1))
    assert ok and abs(np.linalg.norm(z) - 1.0) < 1e-12
    ok, z = r.pa_single_step(vtf, K_all(3))
    assert ok


def test_pa_single_step_none_compromised(vtf):
    ok, z = r.pa_single_step(vtf, r.SensorSet.empty(3))
    assert not ok and z is None


def test_pa_single_step_witness_annihilated(vtf):
    m = r.SystemModel(A=np.diag([2.0, 0.5]), B=None, C=np.eye(2), delta_w=0.0, N=2)
    ok, z = r.pa_single_step(m, r.SensorSet.of([1], 2))
    assert ok
    O_clean = r.build_O(m, r.SensorSet.of([2], 2))
    assert np.linalg.norm(O_clean @ z) <= 1e-8


def test_over_time_id1_window_length_branches(stable_two_state, stable_two_state_n3):
    v2 = r.pa_over_time_id1(stable_two_state, K_all(1))
    assert v2.attackable and v2.branch == "rank_deficient_overlap"
    assert v2.witness is not None
    v3 = r.pa_over_time_id1(stable_two_state_n3, K_all(1))
    assert not v3.attackable and v3.branch == "full_rank_overlap"


def test_over_time_id1_vtf_branch_b(vtf):
    v = r.pa_over_time_id1(vtf, K_all(3))
    assert v.attackable and v.branch == "full_rank_overlap"
    lam, w = v.witness
    assert lam == pytest.approx(1.0)


def test_over_time_id2_cases(stable_two_state, vtf):
    assert r.pa_over_time_id2(vtf, K_all(3)).attackable
    # stable plant: not attackable against the innovation detector even though
    # the support-only detector is beaten over time with N=2
    assert not r.pa_over_time_id2(stable_two_state, K_all(1)).attackable
    assert not r.pa_over_time_id2(vtf, r.SensorSet.empty(3)).attackable


def test_logical_hierarchy_random_instances():
    rng = np.random.default_rng(17)
    count = 0
    for _ in range(1000):
        m = random_observable_model(rng)
        k_size = int(rng.integers(0, m.p + 1))
        K = r.SensorSet.of(rng.choice(np.arange(1, m.p + 1), size=k_size,
                                      replace=False), m.p)
        single, _ = r.pa_single_step(m, K)
        v1 = r.pa_over_time_id1(m, K)
        v2 = r.pa_over_time_id2(m, K)
        assert (not v2.attackable) or v1.attackable   # id2 => id1
        assert (not v1.attackable) or single          # id1 => single step
        count += 1
    assert count == 1000


def test_certificate_soundness_random():
    rng = np.random.default_rng(23)
    positives = 0
    for _ in range(400):
        m = random_observable_model(rng)
        K = r.SensorSet.of(rng.choice(np.arange(1, m.p + 1),
                                      size=int(rng.integers(0, m.p + 1)),
                                      replace=False), m.p)
        single, z = r.pa_single_step(m, K)
        if not single:
            continue
        O_clean = r.build_O(m, K.complement())
        scale = max(1.0, float(np.linalg.norm(O_clean, 2)) if O_clean.size else 1.0)
        if O_clean.shape[0]:
            assert np.linalg.norm(O_clean @ z) <= 10 * RANK_TOL * scale
        v2 = r.pa_over_time_id2(m, K)
        if v2.attackable:
            lam, w = v2.witness
            assert abs(lam) >= 1.0 - STABILITY_MARGIN
        positives += 1
    assert positives >= 40


def test_auth_blocked_error_stays_bounded(vtf):
    # Authenticating sensors 1 and 2 in both window slots restores full rank,
    # and any stealthy single-window attack then keeps the error within the
    # stacked noise bound.
    M = r.build_O(vtf, r.SensorSet.of([1, 2], 3))
    assert r.rank_with_tol(M) == vtf.n
    rng = np.random.default_rng(2)
    bound = 2 * np.sqrt(vtf.N) * vtf.delta_w / np.linalg.svd(M, compute_uv=False)[-1]
    for _ in range(50):
        x0 = rng.normal(size=2)
        vm = rng.uniform(-.05, .05, (2, 3))
        vp = rng.uniform(-.05, .05, (1, 2))
        w = np.stack([vm[0], vm[1] + vtf.C @ vp[0]]).T.ravel()
        a = np.zeros(6)
        a[5] = rng.uniform(0, 0.05)  # only sensor 3 slot 1 evades authentication
        res = r.decode(vtf, vtf.O_full() @ x0 + w + a)
        if len(res.support) == 0:
            assert np.linalg.norm(res.x_hat - x0) <= bound


def test_policy_prevents_vtf(vtf):
    S3 = r.SensorSet.all(3)
    F = r.SensorSet.of([1, 2], 3)
    for L in (1, 10, 100):
        pol = r.AuthPolicy.periodic([1, 2], L, 3)
        v = r.policy_prevents_pa(vtf, S3, pol, F, "II")
        assert v.prevented, (L, v.reason)
        assert v.checks["key_rank"] == 2


def test_policy_stable_two_state_needs_period_one(stable_two_state):
    S1 = r.SensorSet.all(1)
    pol5 = r.AuthPolicy.periodic([1], 5, 1)
    v = r.policy_prevents_pa(stable_two_state, S1, pol5, S1, "I")
    assert not v.prevented
    pol1 = r.AuthPolicy.periodic([1], 1, 1)
    v1 = r.policy_prevents_pa(stable_two_state, S1, pol1, S1, "I")
    assert v1.prevented
    # the innovation detector is satisfied with any bounded period
    v2 = r.policy_prevents_pa(stable_two_state, S1, pol5, S1, "II")
    assert v2.prevented


def test_policy_unobservable_subset_never_prevents(vtf):
    S3 = r.SensorSet.all(3)
    F = r.SensorSet.of([2, 3], 3)  # velocity-only: position unobservable
    pol = r.AuthPolicy.periodic([2, 3], 10, 3)
    v = r.policy_prevents_pa(vtf, S3, pol, F, "II")
    assert not v.prevented
    assert "unobservable" in v.reason


def test_policy_requires_aligned_periodic_schedules(vtf):
    # the bounded-period guarantee needs every sensor of the subset
    # authenticated together: a policy on {1} says nothing about sensor 2
    S3 = r.SensorSet.all(3)
    F = r.SensorSet.of([1, 2], 3)
    v = r.policy_prevents_pa(vtf, S3, r.AuthPolicy.periodic([1], 10, 3), F, "II")
    assert not v.prevented
    assert v.checks["period"] is None and "not periodic" in v.reason
    v = r.policy_prevents_pa(vtf, S3, None, F, "II")
    assert not v.prevented and v.checks["period"] is None
    # a subset of the authenticated sensors shares their period
    pol = r.AuthPolicy.periodic([1, 2], 10, 3)
    for subset in (F, r.SensorSet.of([1], 3)):
        v = r.policy_prevents_pa(vtf, S3, pol, subset, "II")
        assert v.prevented and v.checks["period"] == 10


def test_analyze_report_serializes(vtf):
    rep = r.analyze(vtf, r.SensorSet.all(3))
    import json
    text = json.dumps(rep)
    assert "pa_over_time_id2" in text
    assert rep["pa_over_time_id2"]["attackable"] is True


FOUR = r.SensorSet.of([1, 4], 4)
NOISE = r.NoiseSpec(seed=1)


@pytest.mark.parametrize("call", [
    lambda m: r.run_closed_loop(m, 20, NOISE, policy=r.AuthPolicy.periodic([1], 5, 4)),
    lambda m: r.run_closed_loop(m, 20, NOISE, compromised=FOUR),
    lambda m: r.sustained_attack(m, FOUR, horizon=50, noise=NOISE),
    lambda m: r.sustained_attack(m, r.SensorSet.all(m.p), horizon=50, noise=NOISE,
                                 policy=r.AuthPolicy.periodic([1], 5, 4)),
    lambda m: r.policy_prevents_pa(m, r.SensorSet.all(m.p), r.AuthPolicy.periodic([1, 4], 5, 4),
                                   r.SensorSet.of([1], 3)),
    lambda m: r.policy_prevents_pa(m, r.SensorSet.all(m.p), r.AuthPolicy.periodic([1, 2], 5, 3),
                                   FOUR),
    lambda m: r.policy_prevents_pa(m, FOUR, r.AuthPolicy.periodic([1, 2], 5, 3),
                                   r.SensorSet.of([1], 3)),
    lambda m: r.pa_single_step(m, FOUR),
    lambda m: r.pa_over_time_id1(m, FOUR),
    lambda m: r.analyze(m, r.SensorSet.of([1], 4)),
], ids=["run_policy", "run_compromised", "synth_compromised", "synth_policy",
        "policy_policy", "policy_auth_subset", "policy_compromised", "pa_single_step",
        "pa_over_time_id1", "analyze"])
def test_sensor_sets_sized_for_another_model_are_refused(vtf, call):
    # a 4-sensor set on the 3-sensor VTF model ended in numpy's broadcast
    # ValueError or an IndexError, or silently read sensor 4 as absent
    with pytest.raises(r.ConfigError, match=r"sized for 4 sensors, but the model has 3"):
        call(vtf)


def test_policy_verdict_reads_the_compromised_set():
    # rotation by pi/4, sensors x1, x2 and x1 + x2, authentication of sensor 1:
    # at period 4 both eigenvalues have lambda^4 = -1 and the decimated stack
    # loses rank, so the worst case (every sensor compromised) is not
    # prevented.  A set that no over-time attack reaches was reported "not
    # prevented" all the same.
    th = np.pi / 4
    m = r.SystemModel(A=[[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], B=None,
                      C=[[1, 0], [0, 1], [1, 1]], delta_w=0.1, N=2)
    pol, F = r.AuthPolicy.periodic([1], 4, 3), r.SensorSet.of([1], 3)
    for det, name in (("II", "pa_over_time_id2"), ("I", "pa_over_time_id1")):
        for K in (r.SensorSet.empty(3), r.SensorSet.of([2], 3)):
            v = r.policy_prevents_pa(m, K, pol, F, det)
            assert v.prevented, (det, K)
            assert v.reason == "not perfectly attackable without authentication"
            assert v.checks == {name: getattr(r, name)(m, K).to_report()}
            assert v.checks[name]["attackable"] is False
        v = r.policy_prevents_pa(m, r.SensorSet.all(3), pol, F, det)
        assert not v.prevented and v.reason == "decimated stack rank deficient for this period"
        assert r.policy_prevents_pa(m, r.SensorSet.all(3), r.AuthPolicy.periodic([1], 3, 3),
                                    F, det).prevented


def _equivalence_models(rng):
    """VTF; cold starts through a rank-deficient F(S, N) on the stable
    two-state plant and on 4 random_observable_model draws with N = 1; 16
    more draws, 12 of them unstable; and Jordan blocks at 1, -1 and 1.1 of
    size 2 and 3 turned by a random orthogonal matrix, their third sensor
    blind to the eigenvector."""
    yield r.vtf_model()
    yield r.SystemModel(A=[[0.3, 1.0], [0.0, 0.5]], B=None, C=[[1.0, 0.0]], delta_w=0.0, N=2)
    for i in range(20):
        yield random_observable_model(rng, N=1, p=3) if i < 4 else random_observable_model(
            rng, unstable=True if i < 16 else None)
    for lam, k in itertools.product((1.0, -1.0, 1.1), (2, 3)):
        Q = np.linalg.qr(rng.normal(size=(k, k)))[0]
        C = rng.normal(size=(3, k))
        C[2, 0] = 0.0
        A, C = Q @ (lam * np.eye(k) + np.eye(k, k=1)) @ Q.T, C @ Q.T
        yield r.SystemModel(A=A, B=None, C=C, N=k, delta_w=r.suggest_delta_w(
            A, C, k, 0.02 * np.sqrt(k), 0.02 * np.sqrt(3)))


def _report(verdict, *args):
    """The report's JSON text (the library's own report, the oracle's verdict
    through strict_report), or the ConfigError's message."""
    try:
        out = verdict(*args)
    except r.ConfigError as exc:
        return str(exc)
    if verdict is r.analyze or verdict is r.policy_prevents_pa:
        return report_to_json(out if verdict is r.analyze else out.to_report())
    return json.dumps(strict_report(out), indent=2, sort_keys=True)


def test_verdicts_and_plans_match_the_uncached_oracle():
    # the verdicts and synthesis read one record per compromised set, kept on
    # the model; the oracle searches every witness where it was searched
    # before.  One model serves all its sets, so a record read for the wrong
    # set, or stale, would show; non-finite margins read null on both sides
    rng = np.random.default_rng(38)
    noise = r.NoiseSpec(kind="uniform_elementwise", lo=-0.02, hi=0.02, seed=5)
    reports = plans = cold = 0
    for m in _equivalence_models(rng):
        ramp = r.AuthPolicy.periodic([1], 3, m.p)
        for size in range(m.p + 1):
            for K in itertools.combinations(range(1, m.p + 1), size):
                K = r.SensorSet(K, m.p)
                assert _report(r.analyze, m, K) == _report(analyze_uncached, m, K), K
                for F, period, det in itertools.product(
                        ([1], range(1, m.p + 1)), (1, 3), ("I", "II")):
                    pol = r.AuthPolicy.periodic(F, period, m.p)
                    args = (m, K, pol, pol.sensors, det)
                    assert (_report(r.policy_prevents_pa, *args)
                            == _report(policy_prevents_pa_uncached, *args)), (K, args[2:])
                reports += 9
                for det, pol in itertools.product(("I", "II"), (None, ramp)):
                    kw = dict(detector=det, horizon=60, noise=noise, policy=pol)
                    got = plan_outcome(r.sustained_attack, m, K, **kw)
                    assert got == plan_outcome(sustained_attack_uncached, m, K, **kw), (K, kw)
                    plans += got[0] == "plan"
                    cold += got[0] == "plan" and got[-1].startswith("cold start")
    assert reports >= 1400 and plans >= 90 and cold >= 4, (reports, plans, cold)


def test_one_item_searches_each_witness_once(monkeypatch):
    # a plan under a period-10 policy, analyze and the policy verdict on one
    # compromised set read one record of it: the unstable chain is searched
    # once and the clean window stack built once (they were searched 5 and
    # built 6 times)
    calls = {"unstable_chain": 0, "build_O": 0}

    def count(module, name):
        found = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return found(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    for module in (r.model, r.attackability, r.synth):
        if hasattr(module, "unstable_chain"):
            count(module, "unstable_chain")
    count(r.attackability, "build_O")  # the clean window stack of pa_single_step
    vtf, K = r.vtf_model(), r.SensorSet.of([1, 2, 3], 3)
    policy = r.AuthPolicy.periodic([1, 2], 10, 3)
    r.sustained_attack(vtf, K, horizon=400, policy=policy, noise=r.NoiseSpec(
        kind="uniform_elementwise", lo=-0.05, hi=0.05, seed=1))
    r.analyze(vtf, K)
    assert r.policy_prevents_pa(vtf, K, policy, policy.sensors).prevented
    assert calls == {"unstable_chain": 1, "build_O": 1}


def test_shared_witnesses_are_read_only(vtf):
    # later verdicts and plans on the set read the same arrays, so scaling a
    # returned witness in place would change them all
    K = r.SensorSet.all(3)
    _, z = r.pa_single_step(vtf, K)
    _, v = r.pa_over_time_id2(vtf, K).witness
    for w in (z, v):
        with pytest.raises(ValueError, match="read-only"):
            w *= 2.0
    assert np.array_equal(r.pa_single_step(r.vtf_model(), K)[1], z)
