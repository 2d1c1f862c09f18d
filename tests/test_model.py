import itertools

import numpy as np
import pytest

import rse_lab as r
from rse_lab.attackability import _record
from rse_lab.model import MARGIN_BAND, RANK_TOL, rank_margin, singular_values
from rse_lab.sim import _slot_kernels, _windows

from conftest import random_observable_model
from oracles import (stacked_noise_gram_loops, unstable_chain_search,
                     unstable_eigenstructure_groups)


def test_sensor_set_basics():
    s = r.SensorSet.of([3, 1], 4)
    assert s.indices == (1, 3)
    assert s.complement().indices == (2, 4)
    assert s.complement().complement() == s
    assert r.SensorSet.empty(3).complement() == r.SensorSet.all(3)
    with pytest.raises(r.ConfigError):
        r.SensorSet((2, 1), 3)
    with pytest.raises(r.ConfigError):
        r.SensorSet((0,), 3)


def test_sensor_indices_must_be_integers():
    # a non-integral index was truncated: {2.7} read as {2}, and bools and
    # strings passed through int()
    for bad in (2.7, np.float64(1.9), True, "2"):
        with pytest.raises(r.ConfigError, match="sensor index must be an integer"):
            r.SensorSet.of([bad], 3)
        with pytest.raises(r.ConfigError, match="sensor index must be an integer"):
            r.SensorSet((bad,), 3)
    with pytest.raises(r.ConfigError, match="sensor index must be an integer"):
        r.AuthPolicy.periodic([1.5], 10, 3)
    assert r.SensorSet.of([np.int64(3), 1.0], 3).indices == (1, 3)


def test_a_list_for_a_sensor_set_raises_config_error(vtf):
    # a plain list once ended in AttributeError: 'list' object has no attribute 'p'
    with pytest.raises(r.ConfigError, match=r"compromised must be a SensorSet \(see SensorSet.of\)"):
        r.pa_single_step(vtf, [1, 2])
    with pytest.raises(r.ConfigError, match=r"sensors must be a SensorSet \(see SensorSet.of\)"):
        r.run_closed_loop(vtf, 10, r.NoiseSpec(kind="zero"), policy=r.AuthPolicy([1, 2], 10))


def test_build_O_stable_two_state(stable_two_state):
    O = r.build_O(stable_two_state, r.SensorSet.all(1))
    assert np.allclose(O, [[1.0, 0.0], [0.3, 1.0]])


def test_build_O_empty(stable_two_state):
    O = r.build_O(stable_two_state, r.SensorSet.empty(1))
    assert O.shape == (0, 2)
    assert r.rank_with_tol(O) == 0


def test_build_O_vtf_sensor_major(vtf):
    # sensor-major blocks: [C_i; C_i A] per sensor
    O = r.build_O(vtf, r.SensorSet.all(3))
    expected = np.array([[1, 0], [1, .01], [0, 1], [0, 1], [0, 1], [0, 1]], dtype=float)
    assert np.allclose(O, expected)


def test_build_overlap_stack_stable_two_state(stable_two_state):
    F = r.build_overlap_stack(stable_two_state, r.SensorSet.all(1))
    assert np.allclose(F, [[1.0, 0.0]])
    assert r.rank_with_tol(F) == 1


def test_build_overlap_stack_empty_K_is_O(vtf):
    F = r.build_overlap_stack(vtf, r.SensorSet.empty(3))
    assert np.allclose(F, r.build_O(vtf, r.SensorSet.all(3)))
    assert r.rank_with_tol(F) == 2


def test_build_overlap_stack_vtf_all_compromised(vtf):
    F = r.build_overlap_stack(vtf, r.SensorSet.all(3))
    assert F.shape == (3, 2)
    assert np.allclose(F, vtf.C)
    assert r.rank_with_tol(F) == 2


def test_build_overlap_stack_rows_subset_of_O_rows(vtf):
    O = r.build_O(vtf, r.SensorSet.all(3))
    for K in [r.SensorSet.of(k, 3) for size in range(4)
              for k in itertools.combinations([1, 2, 3], size)]:
        F = r.build_overlap_stack(vtf, K)
        assert r.rank_with_tol(F) <= vtf.n
        for row in F:
            assert any(np.allclose(row, orow) for orow in O)


def test_rank_with_tol_basics():
    assert r.rank_with_tol(np.eye(3)) == 3
    assert r.rank_with_tol(np.array([[1.0, 0.0], [1.0, 0.0]])) == 1


def test_rank_scale_and_permutation_invariance():
    rng = np.random.default_rng(0)
    for _ in range(25):
        M = rng.normal(size=(rng.integers(2, 6), rng.integers(2, 5)))
        if rng.uniform() < 0.5:
            M[-1] = M[0]  # force deficiency sometimes
        base = r.rank_with_tol(M)
        for c in (1e-6, 1e6):
            assert r.rank_with_tol(c * M) == base
        perm = rng.permutation(M.shape[0])
        assert r.rank_with_tol(M[perm]) == base


def test_rank_margin_reports_threshold_distance():
    # a singular value inside the band around the threshold is borderline; one
    # below the threshold over MARGIN_BAND is an exact zero and sets no margin
    rank, margin = rank_margin(np.diag([1.0, 2e-9]))
    assert rank == 2 and margin < MARGIN_BAND * RANK_TOL
    rank, margin = rank_margin(np.diag([1.0, 1e-12]))
    assert rank == 1 and margin == pytest.approx(1.0 - RANK_TOL)
    assert rank_margin(np.zeros((2, 2))) == (0, float("inf"))


def test_unstable_eigenstructure_cases(stable_two_state, vtf):
    assert r.unstable_eigenstructure(stable_two_state.A) == []
    out = r.unstable_eigenstructure(vtf.A)
    assert len(out) == 1
    lam, alg, geo = out[0]
    assert lam == pytest.approx(1.0)
    assert (alg, geo) == (2, 1)
    out2 = r.unstable_eigenstructure(np.diag([2.0, 0.5]))
    assert len(out2) == 1 and out2[0][0] == pytest.approx(2.0)
    assert out2[0][1:] == (1, 1)


def test_unstable_eigenstructure_ordering():
    A = np.diag([2.0, -3.0, 1.0, 0.2])
    lams = [lam for lam, _, _ in r.unstable_eigenstructure(A)]
    assert np.allclose(lams, [-3.0, 2.0, 1.0])


def _head(m, K):
    """unstable_chain's first vector with its eigenvalue; None without a chain."""
    hit = r.unstable_chain(m, K)
    return None if hit is None else (hit[0], hit[1][0])


def test_unstable_null_intersection_vtf(vtf):
    lam, v = _head(vtf, r.SensorSet.all(3))
    assert lam == pytest.approx(1.0)
    assert np.allclose(np.abs(v), [1.0, 0.0], atol=1e-9)


def test_unstable_null_intersection_absent_when_observable(vtf):
    assert r.unstable_chain(vtf, r.SensorSet.empty(3)) is None


def test_unstable_null_intersection_decoupled_diag():
    # sensor 2 sees only the stable mode, so the unstable axis e1 hides from it
    m = r.SystemModel(A=np.diag([2.0, 0.5]), B=None, C=np.eye(2), delta_w=0.0, N=2)
    hit = _head(m, r.SensorSet.of([1], 2))
    assert hit is not None
    lam, v = hit
    assert lam == pytest.approx(2.0)
    assert np.allclose(np.abs(v), [1.0, 0.0], atol=1e-9)
    O_clean = r.build_O(m, r.SensorSet.of([2], 2))
    assert np.linalg.norm(O_clean @ v) <= 1e-8
    assert np.linalg.norm((m.A - lam * np.eye(2)) @ v) <= 1e-8


def test_unstable_chain_vtf(vtf):
    lam, chain = r.unstable_chain(vtf, r.SensorSet.all(3))
    assert lam == pytest.approx(1.0)
    assert len(chain) == 2
    # (A - I) v2 = v1 up to float dust
    assert np.allclose((vtf.A - np.eye(2)) @ chain[1], chain[0], atol=1e-9)


def test_witness_reverification_random():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(200):
        m = random_observable_model(rng)
        K = r.SensorSet.of(rng.choice(np.arange(1, m.p + 1),
                                      size=rng.integers(0, m.p + 1),
                                      replace=False), m.p)
        hit = _head(m, K)
        if hit is None:
            continue
        lam, v = hit
        O_clean = r.build_O(m, K.complement())
        vv = v if v.ndim == 1 else v[:, 0]
        scale = max(1.0, float(np.linalg.norm(O_clean, 2)) if O_clean.size else 1.0)
        if O_clean.shape[0]:
            assert np.linalg.norm(O_clean @ v) <= 10 * RANK_TOL * scale * max(
                1.0, np.linalg.norm(v))
        if v.ndim == 1:
            assert np.linalg.norm((m.A - lam * np.eye(m.n)) @ v) <= 1e-7 * max(
                1.0, abs(lam)) * np.linalg.norm(v)
        checked += 1
    assert checked >= 10


def _witness_models(rng):
    """Seeded models for the witness-search comparison, cycling through the
    kinds of A, Jordan blocks twice as often as the others: general; a
    Jordan block at lambda in {1, 1.2, -1} of size 2 or 3, its superdiagonal
    1 or 0.1, and a rotation on or outside the unit circle, each with stable
    modes filling the state and turned by a random orthogonal matrix; and
    diagonal with repeated entries.  n runs 2..4, p 1..4 and N 1..4; a draw
    whose window stack is rank deficient is drawn again.  Rounding splits a
    turned Jordan block's eigenvalue by about the square root of eps times
    its superdiagonal, so the 0.1 blocks mostly stay one group and give
    chains of length 2."""
    kinds = ["general", "jordan", "complex", "jordan", "diagonal"]
    count = 0
    while True:
        kind = kinds[count % len(kinds)]
        n, N = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        if kind == "general":
            A = rng.normal(size=(n, n))
            A *= rng.uniform(0.8, 1.4) / max(abs(np.linalg.eigvals(A)))
        elif kind == "diagonal":
            A = np.diag(rng.choice([1.3, 1.0, -1.1, 0.5, 0.2], size=n))
        else:
            if kind == "jordan":
                k = int(rng.integers(2, min(n, 3) + 1))
                head = (rng.choice([1.0, 1.2, -1.0]) * np.eye(k)
                        + rng.choice([1.0, 0.1]) * np.eye(k, k=1))
            else:
                k, rho, th = 2, rng.choice([1.0, 1.1]), rng.uniform(0.2, 3.0)
                head = rho * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            A = np.zeros((n, n))
            A[:k, :k] = head
            A[k:, k:] = np.diag(rng.uniform(-0.9, 0.9, size=n - k))
            Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            A = Q @ A @ Q.T
        p = int(rng.integers(n if N == 1 else 1, 5))
        try:
            yield r.SystemModel(A=A, B=None, C=rng.normal(size=(p, n)), delta_w=0.1, N=N)
        except r.ConfigError:
            continue
        count += 1


def test_witness_search_matches_the_two_pass_oracle():
    # model.unstable_chain searches A restricted to the clean sensors'
    # unobservable subspace; the oracle is the search as it was, testing each
    # eigenvalue group of A against O_clean.  With every sensor compromised
    # the two do the same arithmetic; elsewhere they agree to rounding, so the
    # comparison is to stated tolerances.  A pair is borderline when a rank
    # decision behind either search, on O_clean or on the clean classical
    # stack, lies inside the MARGIN_BAND band; its verdict may differ.
    rng = np.random.default_rng(27)
    models = itertools.islice(_witness_models(rng), 200)
    compared = chains = borderline = 0
    for m in models:
        groups = unstable_eigenstructure_groups(m.A)
        assert r.unstable_eigenstructure(m.A) == groups
        scale_A = max(1.0, float(np.linalg.norm(m.A, 2)))
        for size in range(m.p + 1):
            for K in itertools.combinations(range(1, m.p + 1), size):
                K = r.SensorSet(K, m.p)
                compared += 1
                got, want = r.unstable_chain(m, K), unstable_chain_search(m, K)
                head = _record(m, K).head  # the head the verdicts read
                if got is None:
                    assert head is None
                else:
                    assert head[0] == got[0] and np.array_equal(head[1], got[1][0])
                O_clean = r.build_O(m, K.complement())
                margin = min(rank_margin(O_clean)[1],
                             rank_margin(r.classical_obs_stack(m, K.complement()))[1])
                if margin < MARGIN_BAND * RANK_TOL:
                    borderline += 1
                    continue
                assert (got is None) == (want is None), (K, got, want)
                if got is None:
                    continue
                (lam, vecs), (lam_w, vecs_w) = got, want
                assert type(lam) is type(lam_w)
                assert abs(lam - lam_w) <= 1e-12 * max(1.0, abs(lam))
                assert len(vecs) == len(vecs_w)
                chains += len(vecs) >= 2
                scale = max(1.0, float(np.linalg.norm(O_clean, 2))) if O_clean.size else 1.0
                for v in vecs:
                    assert np.linalg.norm(O_clean @ v) <= 1e-9 * scale
                v, w = vecs[0], vecs_w[0]
                if v.ndim == 2:  # complex lambda: the same invariant plane
                    assert np.linalg.norm(m.A @ v - v @ (v.T @ m.A @ v)) <= 1e-9 * scale_A
                    assert np.linalg.norm(v @ v.T - w @ w.T) <= 1e-9
                    continue
                Alam = m.A - lam * np.eye(m.n)
                assert np.linalg.norm(Alam @ v) <= 1e-9 * scale_A
                for prev, nxt in zip(vecs, vecs[1:]):
                    assert np.linalg.norm(Alam @ nxt - prev) <= 1e-9 * scale_A * max(
                        1.0, np.linalg.norm(nxt))
                if min(groups, key=lambda g: abs(g[0] - lam_w))[2] == 1:
                    # a defective eigenvector is computed to about eps^(1/k)
                    # for a block of size k <= 3
                    assert min(np.linalg.norm(v - w), np.linalg.norm(v + w)) <= 1e-5
    assert compared >= 1500 and chains >= 20 and borderline <= 3, (
        compared, chains, borderline)


def test_full_O_always_rank_n():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = random_observable_model(rng)
        assert r.rank_with_tol(r.build_O(m, r.SensorSet.all(m.p))) == m.n


def test_model_validation():
    with pytest.raises(r.ConfigError):
        r.SystemModel(A=[[1.0, 0.0], [0.0, 1.0]], B=None, C=[[1.0, 0.0]],
                      delta_w=0.0, N=1)  # one position row cannot see velocity
    with pytest.raises(r.ConfigError):
        r.SystemModel(A=[[1.0]], B=None, C=[[1.0]], delta_w=-1.0, N=1)
    with pytest.raises(r.ConfigError):
        r.SystemModel(A=[[1.0, 0.0]], B=None, C=[[1.0]], delta_w=0.0, N=1)
    # non-finite entries: a NaN delta_w once passed the "< 0" check and let
    # every residual count as inside Omega
    good = dict(A=[[1.0]], B=[[1.0]], C=[[1.0]], delta_w=0.1, N=1)
    for key, bad, message in (("delta_w", float("nan"), "delta_w"),
                              ("delta_w", float("inf"), "delta_w"),
                              ("A", [[float("nan")]], "A has non-finite"),
                              ("B", [[float("inf")]], "B has non-finite"),
                              ("C", [[-float("inf")]], "C has non-finite"),
                              ("N", 2.5, "N must be an integer")):
        with pytest.raises(r.ConfigError, match=message):
            r.SystemModel(**dict(good, **{key: bad}))


def test_stacked_window_layout(vtf):
    # the windows the simulator decodes: sensor-major blocks, slot k of
    # sensor i at entry (i - 1) * N + k (zero inputs: no forced response)
    series = np.arange(12, dtype=float).reshape(4, 3)  # 4 steps, 3 sensors
    Y = _windows(series, np.zeros((4, 1)), _slot_kernels(vtf) @ vtf.B)
    assert Y.shape == (3, 6)
    assert np.array_equal(Y[1], [3, 6, 4, 7, 5, 8])
    assert np.array_equal(Y[1][1::2], series[2])  # slot 1, all sensors
    assert np.array_equal(Y[1][2:4], series[1:3, 1])  # sensor 2, both slots


def test_window_stacks_match_their_entry_by_entry_constructions(vtf, monkeypatch):
    # every stack is a row selection of O_full and the noise Gram one product
    # over its rows; the constructions they replaced, written out row by row,
    # give the same rows (up to order) and rank margins, bit for bit on VTF,
    # whose unit-row C makes every regrouped product exact
    from rse_lab import attackability
    seen = []  # every matrix policy_prevents_pa ranks, the decimated stack among them
    real_margin = attackability.rank_margin
    monkeypatch.setattr(attackability, "rank_margin", lambda M: seen.append(M) or real_margin(M))

    def check(m, tol):
        def same(X, Y):  # the same rows, up to order
            X, Y = (M[np.lexsort(M.T[::-1])] for M in (X, Y))
            return X.shape == Y.shape and np.allclose(X, Y, rtol=tol, atol=tol)

        def same_margin(got, M_old):
            rank, margin = rank_margin(M_old)
            return got == (rank, pytest.approx(margin, rel=tol, abs=tol))

        G = stacked_noise_gram_loops(m.A, m.C, m.N, m.delta_vp, m.delta_vm)
        assert np.max(np.abs(m.noise_gram() - G)) <= tol / 100 * np.max(np.abs(G))  # 1e-14
        Pw = [np.eye(m.n)]
        while len(Pw) < m.N:
            Pw.append(Pw[-1] @ m.A)
        for K in (r.SensorSet.of(k, m.p) for size in range(m.p + 1)
                  for k in itertools.combinations(range(1, m.p + 1), size)):
            clean = K.complement()
            O_old = np.vstack([m.C[i] @ P for i in clean.indices0 for P in Pw]
                              or [np.empty((0, m.n))])
            assert np.array_equal(r.build_O(m, clean), O_old)
            F_old = np.vstack([O_old] + [m.C[list(K.indices0)] @ P for P in Pw[:-1]])
            F = r.build_overlap_stack(m, K)
            assert same(F, F_old) and same_margin(rank_margin(F), F_old)
        # the decimated stack [P_F C; P_F C A^L; ...] of an L-periodic policy
        auth = r.SensorSet.of(range(1, m.p), m.p)
        for L in (1, 3, 10):
            seen.clear()
            checks = r.policy_prevents_pa(m, r.SensorSet.all(m.p), r.AuthPolicy(auth, L), auth,
                                          detector="I").checks
            if "key_rank" in checks:
                key_old = [m.C[list(auth.indices0)]]
                while len(key_old) < m.N:
                    key_old.append(key_old[-1] @ np.linalg.matrix_power(m.A, L))
                key_old = np.vstack(key_old)
                assert any(np.allclose(M, key_old, rtol=tol, atol=tol) for M in seen
                           if M.shape == key_old.shape)
                assert same_margin((checks["key_rank"], checks["key_margin"]), key_old)
                checked.append(m.N)

    checked = []
    check(vtf, tol=0)
    rng = np.random.default_rng(17)
    for N in (2, 3, 4, 5):
        for _ in range(6):
            check(random_observable_model(rng, N=N, unstable=True, weighted=True), tol=1e-12)
    assert len(set(checked)) == 4 and len(checked) > 40


def test_suggest_delta_w_vtf(vtf):
    dvm = np.sqrt(3) * 0.05
    dvp = np.sqrt(2) * 0.05
    dw = r.suggest_delta_w(vtf.A, vtf.C, 2, dvp, dvm)
    assert dw == pytest.approx(dvm + np.sqrt(2) * dvp)
    # hard bound on realized effective noise
    rng = np.random.default_rng(0)
    for _ in range(500):
        vm = rng.uniform(-.05, .05, 3)
        vp = rng.uniform(-.05, .05, 2)
        assert np.linalg.norm(vm + vtf.C @ vp) <= dw


def test_classical_obs_stack(vtf):
    M = r.classical_obs_stack(vtf, r.SensorSet.of([2, 3], 3))
    assert r.rank_with_tol(M) == 1  # velocity-only sensors never see position
