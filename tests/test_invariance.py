"""Rank verdicts that do not depend on state coordinates, sensor order or units.

Each case takes a model, a compromised set K and an authentication policy
(subset F, a period), and compares five verdicts -- pa_single_step,
pa_over_time_id1, pa_over_time_id2 and policy_prevents_pa under both
detectors -- with those on a transformed copy:

  * a state similarity x' = T x, so A' = T A T^-1 and C' = C T^-1, with T
    orthogonal or of condition number up to 100;
  * a sensor permutation, with K and F permuted alike;
  * a row scaling of C (sensor units) by factors in 0.1..10.

A rank decision inside the MARGIN_BAND band may go either way, so a case is
skipped, and counted, when on either copy the clean window stack O_clean, the
clean sensors' classical stack or the overlap stack F(S, N) has a borderline
margin.
"""

import itertools

import numpy as np

import rse_lab as r
from rse_lab.model import MARGIN_BAND, RANK_TOL, rank_margin

from conftest import random_observable_model

def _model(A, C, N):
    return r.SystemModel(A=A, B=None, C=C, delta_w=0.1, N=N)


def _orthogonal(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)))[0]


def _jordan(rng, lam, k):
    """A Jordan block at lam of size k in its own coordinates, sensors 1 and 2
    random, sensor 3 clean and blind to the eigenvector e1; K = {1, 2}."""
    A = lam * np.eye(k) + np.eye(k, k=1)
    C = rng.normal(size=(3, k))
    C[2, 0] = 0.0
    return _model(A, C, k), r.SensorSet.of([1, 2], 3)


def _families(rng):
    """(family, model, K) triples: random models, rotated Jordan blocks,
    repeated diagonals, rotations on and outside the unit circle, sparse C,
    and VTF.  Models whose window stack is rank deficient are drawn again."""
    def subset(p):
        return r.SensorSet.of(rng.choice(np.arange(1, p + 1), size=int(rng.integers(0, p + 1)),
                                         replace=False), p)

    for lam, k in itertools.product((1.0, -1.0, 1.1), (2, 3, 4)):
        for _ in range(4):
            yield ("jordan",) + _jordan(rng, lam, k)
    yield "vtf", r.vtf_model(), r.SensorSet.all(3)
    yield "vtf", r.vtf_model(), r.SensorSet.of([1], 3)
    made = 0
    while made < 260:
        kind = ("random", "diagonal", "rotation", "sparse")[made % 4]
        n, p = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        if kind == "random":
            m = random_observable_model(rng)
        else:
            if kind == "diagonal":
                A = np.diag(rng.choice([1.3, 1.0, -1.1, 0.5], size=n))
            elif kind == "rotation":
                rho, th = rng.choice([1.0, 1.05]), rng.uniform(0.2, 3.0)
                A = np.diag([0.0, 0.0, 0.3, -0.5][:n])
                A[:2, :2] = rho * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            else:
                A = rng.normal(size=(n, n))
                A *= rng.uniform(0.8, 1.3) / max(abs(np.linalg.eigvals(A)))
            C = rng.normal(size=(p, n))
            if kind == "sparse":
                C *= rng.uniform(size=(p, n)) < 0.4
            try:
                m = _model(A, C, n)
            except r.ConfigError:
                continue
        made += 1
        yield kind, m, subset(m.p)


def _verdicts(m, K, F, period):
    policy = r.AuthPolicy.periodic(F, period, m.p)
    return (r.pa_single_step(m, K)[0], bool(r.pa_over_time_id1(m, K)),
            bool(r.pa_over_time_id2(m, K)),
            bool(r.policy_prevents_pa(m, K, policy, policy.sensors, "I")),
            bool(r.policy_prevents_pa(m, K, policy, policy.sensors, "II")))


def _borderline(m, K):
    clean = K.complement()
    stacks = (r.build_O(m, clean), r.classical_obs_stack(m, clean),
              r.build_overlap_stack(m, K))
    return min(rank_margin(M)[1] for M in stacks) < MARGIN_BAND * RANK_TOL


def _similarity(rng, m):
    T = _orthogonal(rng, m.n)
    if rng.uniform() < 0.5:  # condition number up to 100
        T = T @ np.diag(np.geomspace(1.0, rng.uniform(2.0, 100.0), m.n)) @ _orthogonal(rng, m.n)
    Ti = np.linalg.inv(T)
    return _model(T @ m.A @ Ti, m.C @ Ti, m.N)


def _transforms(rng, m, K, F):
    """(name, model', K', F') for each transformation of the case."""
    yield "similarity", _similarity(rng, m), K, F
    perm = rng.permutation(m.p)            # new sensor j is old sensor perm[j]
    where = np.argsort(perm) + 1           # old sensor i is new sensor where[i - 1]
    moved = [r.SensorSet.of(where[list(S.indices0)], m.p) for S in (K, F)]
    yield "permutation", _model(m.A, m.C[perm], m.N), *moved
    yield "scaling", _model(m.A, rng.uniform(0.1, 10.0, size=(m.p, 1)) * m.C, m.N), K, F


def test_rank_verdicts_are_invariant():
    rng = np.random.default_rng(10)
    compared, skipped, changed = 0, 0, []
    for family, m, K in _families(rng):
        F = r.SensorSet.of(rng.choice(np.arange(1, m.p + 1), size=int(rng.integers(1, m.p + 1)),
                                      replace=False), m.p)
        period = int(rng.integers(1, 6))
        base = _verdicts(m, K, F, period)
        for name, m2, K2, F2 in _transforms(rng, m, K, F):
            if _borderline(m, K) or _borderline(m2, K2):
                skipped += 1
                continue
            compared += 1
            if _verdicts(m2, K2, F2, period) != base:
                changed.append((family, name, K, base))
    assert not changed, f"{len(changed)} of {compared} verdicts changed: {changed[:5]}"
    assert compared >= 850 and skipped <= 10, (compared, skipped)


def _attack_outcome(m, K):
    try:
        r.sustained_attack(m, K, detector="II", horizon=80, noise=r.NoiseSpec(kind="zero"))
    except r.NotPerfectlyAttackable as exc:
        return "refused", str(exc)
    return "plan", ""


def test_sustained_attack_outcome_is_invariant_under_similarity():
    # a plan in one coordinate system is a plan in every other; a refusal is
    # the same refusal.  A unit-circle witness without a chain in the hidden
    # subspace (the Jordan blocks at 1 and -1, whose clean sensor sees e2) is
    # refused in both alike
    rng = np.random.default_rng(11)
    kinds = set()
    for family, m, K in itertools.islice(_families(rng), 36 + 2 + 40):
        if _borderline(m, K):
            continue
        outcome = _attack_outcome(m, K)
        assert _attack_outcome(_similarity(rng, m), K) == outcome, (family, K, outcome)
        kinds.add(outcome[0])
    assert kinds == {"plan", "refused"}
