import collections
import itertools

import numpy as np
import pytest

import rse_lab as r
from rse_lab import decoder
from rse_lab.decoder import DecodeStats, NoiseFeasibleSet, WindowDecoder

from conftest import random_observable_model
from oracles import grid_feasibility, weighted_ls_value


def stack(model, per_step_rows):
    """Sensor-major stack of an (N, p) array of per-step vectors."""
    return np.asarray(per_step_rows, dtype=float).T.ravel()


def four_sensor_model(delta_w=0.05):
    return r.SystemModel(A=[[1.0, 0.1], [0.0, 1.0]], B=None,
                         C=[[1, 0], [0, 1], [1, 1], [1, -1]],
                         delta_w=delta_w, N=2)


def test_oracle_consistent_noiseless(stable_two_state):
    x0 = np.array([1.0, -2.0])
    y = stable_two_state.O_full() @ x0
    res = WindowDecoder(stable_two_state).feasibility(r.SensorSet.all(1), y)
    assert res.feasible
    assert np.allclose(res.x_hat, x0, atol=1e-9)
    assert np.linalg.norm(res.w_hat) <= 1e-9


def test_oracle_empty_clean_set_vacuous(stable_two_state):
    res = WindowDecoder(stable_two_state).feasibility(r.SensorSet.empty(1), np.array([5.0, 7.0]))
    assert res.feasible
    assert np.allclose(res.x_hat, 0.0)


def test_oracle_infeasible_off_range():
    # residual orthogonal to range(O) and far larger than the (zero) noise set
    m = r.SystemModel(A=[[0.3, 1.0], [0.0, 0.5]], B=None, C=[[1.0, 0.0]],
                      delta_w=0.0, N=3)
    Om = m.O_full()
    U = np.linalg.svd(Om, full_matrices=True)[0]
    perp = U[:, 2]
    y = Om @ np.array([0.5, 0.5]) + 3.0 * perp
    res = WindowDecoder(m).feasibility(r.SensorSet.all(1), y)
    assert not res.feasible


def test_oracle_matches_grid_on_seeded_instances():
    rng = np.random.default_rng(42)
    m = r.SystemModel(A=[[0.9, 0.2], [-0.1, 0.8]], B=None,
                      C=[[1, 0], [0, 1], [1, 1]], delta_w=0.1, N=2)
    dec = WindowDecoder(m)
    O = m.O_full()
    compared = 0
    for _ in range(200):
        x0 = rng.uniform(-1.0, 1.0, 2)
        w = stack(m, rng.uniform(-0.04, 0.04, (2, 3)))
        y = O @ x0 + w
        if rng.uniform() < 0.5:
            sensor = rng.integers(1, 4)
            y[(sensor - 1) * 2:(sensor) * 2] += rng.uniform(0.2, 1.0)
        clean = r.SensorSet.of(
            rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False), 3)
        rows = clean.block_rows(2)
        ub, lb = grid_feasibility(O[rows], y[rows], m.delta_w, 2)
        verdict = dec.feasibility(clean, y)
        if ub <= 0:
            assert verdict.feasible, f"grid found feasible point, oracle said no (ub={ub})"
            compared += 1
        elif lb > 10 * dec.omega.eps_feas:
            assert not verdict.feasible, f"oracle feasible but grid certifies gap lb={lb}"
            compared += 1
        # else: boundary band, no claim
    assert compared >= 180


def test_decode_no_attack_error_bound():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = random_observable_model(rng, n=2, p=3)
        x0 = rng.normal(size=2)
        hw = 0.02
        vm = rng.uniform(-hw, hw, (2, 3))
        vp = rng.uniform(-hw, hw, (1, 2))
        w_rows = [vm[0], vm[1] + m.C @ vp[0]]
        y = m.O_full() @ x0 + stack(m, w_rows)
        res = r.decode(m, y)
        assert res.support == r.SensorSet.empty(3)
        bound = m.O_pinv_norm() * 2 * np.sqrt(m.N) * m.delta_w
        assert np.linalg.norm(res.x_hat - x0) <= bound


def test_decode_null_space_attack_shifts_estimate_exactly(stable_two_state):
    x0 = np.array([0.25, -0.75])
    z = np.array([2.0, 3.0])
    y = stable_two_state.O_full() @ (x0 + 0)  # clean output
    res = r.decode(stable_two_state, y + stable_two_state.O_full() @ z)
    assert res.support == r.SensorSet.empty(1)
    assert np.allclose(res.a_hat, 0.0)
    assert np.allclose(res.x_hat - x0, z, atol=1e-9)


def test_decode_recovers_support():
    m = four_sensor_model()
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=2)
    w = stack(m, 0.4 * m.delta_w * rng.uniform(-1, 1, (2, 4)))
    y = m.O_full() @ x0 + w
    y[4:6] += 10.0  # sensor 3 block
    res = r.decode(m, y)
    assert res.support == r.SensorSet.of([3], 4)
    assert np.linalg.norm(res.x_hat - x0) <= m.O_pinv_norm() * 2 * np.sqrt(2) * m.delta_w
    # constraint satisfaction and noise membership
    resid = y - m.O_full() @ res.x_hat - res.w_hat - res.a_hat
    assert np.linalg.norm(resid) <= 1e-6 * (1 + np.linalg.norm(y))
    for k in range(2):
        assert np.linalg.norm(res.w_hat[k::2]) <= m.delta_w + 1e-8
    # a_hat vanishes outside the support blocks
    outside = np.ones(8, dtype=bool)
    outside[4:6] = False
    assert np.allclose(res.a_hat[outside], 0.0)


def test_decode_minimality_exhaustive():
    m = four_sensor_model()
    dec = WindowDecoder(m)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x0 = rng.normal(size=2)
        w = stack(m, 0.3 * m.delta_w * rng.uniform(-1, 1, (2, 4)))
        y = m.O_full() @ x0 + w
        attacked = rng.choice([1, 2, 3, 4], size=rng.integers(0, 3), replace=False)
        for s in attacked:
            y[(s - 1) * 2:s * 2] += rng.uniform(1.0, 4.0, 2)
        res = dec.decode(y)
        for size in range(len(res.support)):
            for comb in itertools.combinations(range(1, 5), size):
                clean = r.SensorSet.of(comb, 4).complement()
                assert not dec.feasibility(clean, y).feasible


def test_decode_tie_break_lexicographic():
    # scalar state with two redundant sensors: a range-consistent bump on
    # sensor 1 makes the two sensors disagree, so supports {1} and {2} both
    # explain the window; the decoder must pick the lexicographic first
    m = r.SystemModel(A=[[0.9]], B=None, C=[[1.0], [1.0]], delta_w=0.0, N=2)
    dec = WindowDecoder(m)
    y = m.O_full() @ np.array([0.4])
    y[0:2] += 2.0 * np.array([1.0, 0.9])
    assert not dec.feasibility(r.SensorSet.all(2), y).feasible
    assert dec.feasibility(r.SensorSet.of([2], 2), y).feasible
    assert dec.feasibility(r.SensorSet.of([1], 2), y).feasible
    res = dec.decode(y)
    assert res.support == r.SensorSet.of([1], 2)


def test_decode_determinism():
    m = four_sensor_model()
    rng = np.random.default_rng(3)
    y = m.O_full() @ rng.normal(size=2) + stack(m, 0.3 * m.delta_w * rng.uniform(-1, 1, (2, 4)))
    y[0:2] += 2.0
    r1 = r.decode(m, y)
    r2 = r.decode(m, y)
    assert r1.support == r2.support
    assert np.array_equal(r1.x_hat, r2.x_hat)
    assert np.array_equal(r1.a_hat, r2.a_hat)


def test_stealth_completeness_random_null_attacks():
    rng = np.random.default_rng(9)
    tried = 0
    for _ in range(300):
        m = random_observable_model(rng, n=2, p=3, noise_hw=0.02)
        K = r.SensorSet.of(rng.choice([1, 2, 3], size=rng.integers(2, 4),
                                      replace=False), 3)
        basis = r.null_basis(r.build_O(m, K.complement()))
        if basis.shape[1] == 0:
            continue
        z = basis @ rng.normal(size=basis.shape[1])
        z = z / max(np.linalg.norm(z), 1e-12) * rng.uniform(0.5, 20.0)
        x0 = rng.normal(size=2)
        vm = rng.uniform(-0.01, 0.01, (2, 3))
        vp = rng.uniform(-0.01, 0.01, (1, 2))
        w = stack(m, [vm[0], vm[1] + m.C @ vp[0]])
        y = m.O_full() @ x0 + w + m.O_full() @ z
        res = r.decode(m, y)
        assert res.support == r.SensorSet.empty(3)
        tried += 1
    assert tried >= 30


def test_decoder_stats_exposed():
    m = four_sensor_model()
    y = m.O_full() @ np.array([1.0, 1.0])
    y[0:2] += 3.0
    res = r.decode(m, y)
    assert res.stats.supports_tested >= 2
    assert res.stats.indeterminate == 0


def test_support_cap_guard():
    m = r.SystemModel(A=np.eye(2), B=None, C=np.ones((21, 2)) + np.eye(21, 2),
                      delta_w=0.0, N=2)
    with pytest.raises(r.ConfigError):
        WindowDecoder(m)


def test_innovation_bound_values(stable_two_state, vtf):
    z = r.SystemModel(A=[[0.3, 1.0], [0.0, 0.5]], B=None, C=[[1.0, 0.0]],
                      delta_w=0.0, N=2)
    assert r.innovation_bound(z) == 0.0
    m = r.SystemModel(A=[[0.3, 1.0], [0.0, 0.5]], B=None, C=[[1.0, 0.0]],
                      delta_w=0.1, N=2)
    # frozen after first computation; the formula below is the oracle
    assert r.innovation_bound(m) == pytest.approx(0.7062022174980593, abs=1e-12)
    s_min = np.linalg.svd(m.O_full(), compute_uv=False)[-1]
    direct = 2 * np.sqrt(2) * 0.1 * (1 / s_min) * (1 + np.linalg.norm(m.A, 2))
    assert r.innovation_bound(m) == pytest.approx(direct)
    # case-study gain ||O^+|| ~ .7071 feeds the threshold
    assert vtf.O_pinv_norm() == pytest.approx(0.7071156195241728, abs=1e-12)
    assert r.innovation_bound(vtf) == pytest.approx(
        2 * np.sqrt(2) * vtf.delta_w * 0.7071156195241728
        * (1 + np.linalg.norm(vtf.A, 2)), rel=1e-12)
    assert r.detector_threshold(vtf) >= r.innovation_bound(vtf)


def test_oracle_indeterminate_band(monkeypatch):
    # delta_w = 0 and off-range residuals near eps_feas: each slot is one
    # scalar, the per-step radius is 0, and uniform weights bound the min-max
    # norm from below by ||r|| / sqrt(3)
    m = r.SystemModel(A=[[0.3, 1.0], [0.0, 0.5]], B=None, C=[[1.0, 0.0]],
                      delta_w=0.0, N=3)
    Om = m.O_full()
    perp = np.linalg.svd(Om, full_matrices=True)[0][:, 2]

    def window(size):
        return Om @ np.array([0.1, 0.2]) + size * perp

    # 5e-8 off range: certified infeasible, sqrt(||r||^2 / 3) above eps_feas
    res = WindowDecoder(m).feasibility(r.SensorSet.all(1), window(5e-8))
    assert res.status == "infeasible"
    assert 2.8e-8 <= res.gap < 5e-8
    np.testing.assert_allclose(res.weights, np.full(3, 1 / 3))
    assert np.sqrt(weighted_ls_value(Om, window(5e-8), res.weights, 3)) == pytest.approx(
        res.gap, rel=1e-6)
    # 5e-9 off range: a tie, feasible within eps_feas
    res = WindowDecoder(m).feasibility(r.SensorSet.all(1), window(5e-9))
    assert res.feasible
    assert 0 < res.gap <= NoiseFeasibleSet.eps_feas
    np.testing.assert_allclose(Om @ res.x_hat + res.w_hat, window(5e-9), rtol=0, atol=1e-15)
    # 1.5e-8 off range: round one can call neither, so a one-round cap is
    # indeterminate, and counted
    monkeypatch.setattr(decoder, "MAX_ROUNDS", 1)
    stats = DecodeStats()
    res = WindowDecoder(m).feasibility(r.SensorSet.all(1), window(1.5e-8), stats)
    assert res.status == "indeterminate"
    assert res.weights is None and res.x_hat is None
    assert stats.indeterminate == 1 and stats.oracle_iterations == 1


# A near-boundary window (bench recipe L0_BOUNDARY with 0.5-1.5 delta_w attacks
# and 0-0.9 delta_w noise) whose planted sensors are 2 and 4.  The clean set
# without sensor 2 has a witness just inside Omega; an alternating-projection
# oracle that gave up after its iteration cap called it infeasible and the
# decoder returned the larger support {1, 2}.
BOUNDARY_A = [[-0.3265521170934398, -0.008027735879524999, -0.4256668436392038],
              [-0.1329959584038018, -0.2353285739020545, 0.1707539266451405],
              [-0.8993071648422293, -0.17447105508354113, 0.6938448350931822]]
BOUNDARY_C = [[0.0, 0.0, 0.0],
              [-0.8998204043493616, -0.10163145022144092, -0.6475751982397981],
              [1.0, 0.08251244650028355, 0.3230160184892046],
              [1.425312598119248, 1.6011513534387092, 1.2092653196103211],
              [1.2299140192309808, -0.35560995938362605, -1.0817579071803671],
              [-0.9008889699521753, -1.107526231316503, -1.3953895941489034]]
BOUNDARY_DELTA_W = 0.3038140931041085
BOUNDARY_Y = [-0.09813242839856474, 0.015320643778549449, 0.042666488321982256,
              0.23715539134679825, 0.9587867507671719, 0.041170761339912876,
              0.2780496361308482, -0.24757963016306386, 0.08579628711167406,
              -2.156063013409075, -0.6460030774869057, -0.44708217635691777,
              2.332140001136331, 1.2493430611897332, 1.517145896972305,
              1.9081746219751572, 1.3230780257130637, 0.9562288885685803]


def test_decode_accepts_first_feasible_support_near_boundary():
    m = r.SystemModel(A=BOUNDARY_A, B=None, C=BOUNDARY_C, delta_w=BOUNDARY_DELTA_W, N=3)
    dec = WindowDecoder(m)
    y = np.array(BOUNDARY_Y)
    O, N, dw = m.O_full(), m.N, m.delta_w
    res = dec.decode(y)
    assert res.support == r.SensorSet.of([2], 6)
    assert res.stats.indeterminate == 0
    clean = res.support.complement()
    rows = clean.block_rows(N)
    assert dec.omega.inside(res.w_hat[rows], dw, N)
    np.testing.assert_allclose(O[rows] @ res.x_hat + res.w_hat[rows], y[rows], rtol=0, atol=1e-12)
    # every earlier support is infeasible, each with a certificate
    for support in dec._supports()[:res.stats.supports_tested - 1]:
        rows = support.complement().block_rows(N)
        verdict = dec.feasibility(support.complement(), y)
        assert verdict.status == "infeasible"
        weights = verdict.weights if verdict.iterations else np.full(N, 1 / N)
        assert weighted_ls_value(O[rows], y[rows], weights, N) > dw ** 2


def test_feasibility_verdicts_carry_certificates():
    rng = np.random.default_rng(12)
    seen = collections.Counter()
    for k in range(6):
        m = random_observable_model(rng, p=5, weighted=bool(k % 2))
        dec = WindowDecoder(m)
        O, N, dw, p = m.O_full(), m.N, m.delta_w, m.p
        uniform = np.full(N, 1 / N)
        for _ in range(25):
            # per-slot noise at 90-100 % of delta_w, two sensors attacked near it
            w = rng.normal(size=(N, p))
            w *= dw * rng.uniform(0.9, 1.0, (N, 1)) / np.linalg.norm(w, axis=1, keepdims=True)
            y = O @ rng.normal(size=m.n) + w.T.ravel()
            for i in rng.choice(p, size=2, replace=False):
                y[i * N:(i + 1) * N] += rng.choice([-1, 1], size=N) * rng.uniform(0.5, 1.5, N) * dw
            for support in dec._supports()[:dec.decode(y).stats.supports_tested]:
                rows = support.complement().block_rows(N)
                v = dec.feasibility(support.complement(), y)
                if v.feasible:
                    seen["feasible", v.iterations > 0] += 1
                    np.testing.assert_allclose(O[rows] @ v.x_hat + v.w_hat, y[rows],
                                               rtol=0, atol=1e-12 * (1 + np.abs(y).max()))
                    assert dec.omega.inside(v.w_hat, dw, N) or 0 < v.gap <= dec.omega.eps_feas
                    continue
                assert v.status == "infeasible"
                seen["infeasible", v.iterations > 0] += 1
                if v.iterations == 0:
                    assert v.weights is None
                    value = weighted_ls_value(O[rows], y[rows], uniform, N)
                else:
                    value = weighted_ls_value(O[rows], y[rows], v.weights, N)
                assert value > dw ** 2
                assert np.sqrt(value) - dw == pytest.approx(v.gap, rel=1e-6)
    assert seen["feasible", False] and seen["infeasible", False]
    assert seen["feasible", True] and seen["infeasible", True]


def test_window_length_one():
    m = r.SystemModel(A=[[0.5]], B=None, C=[[1.0], [1.0]], delta_w=0.05, N=1)
    res = r.decode(m, np.array([0.3, 0.31]))
    assert res.support == r.SensorSet.empty(2)
    assert abs(res.x_hat[0] - 0.305) < 0.05
    assert np.allclose(r.build_overlap_stack(m, r.SensorSet.of([1], 2)), [[1.0]])


def test_decode_batch_matches_decode():
    rng = np.random.default_rng(31)

    def size(res_rows):  # the quantity Omega bounds
        return max(np.linalg.norm(res_rows[k::N]) for k in range(N))

    for k in range(4):
        m = random_observable_model(rng, p=4, weighted=bool(k % 2))
        dec = WindowDecoder(m)
        O, N, dw, p = m.O_full(), m.N, m.delta_w, m.p
        rows, margins = [], []
        for _ in range(24):
            w = rng.normal(size=p * N)
            y = O @ rng.normal(size=m.n) + w * (rng.uniform(0, 1) * dw / size(w))
            planted = rng.choice(p, size=int(rng.integers(0, p // 2)), replace=False)
            for i in planted:
                y[i * N:(i + 1) * N] += rng.choice([-1, 1], size=N) * rng.uniform(20, 100) * dw
            rows.append(y)
            margins.append(None)
        # noise whose fast-path residual sits just inside or just outside Omega;
        # the residual is linear in the noise, so read it off a small draw.  At
        # 1e-15 the rounding of a state's O x would swamp the margin, so those
        # rows carry noise only
        for rel in (-1e-6, -1e-10, -1e-15, 1e-15, 1e-10, 1e-6):
            w = rng.normal(size=p * N)
            w *= 1e-3 * dw / np.linalg.norm(w)
            r0 = dec.feasibility(r.SensorSet.all(p), w).w_hat
            x = rng.normal(size=m.n) if abs(rel) > 1e-12 else np.zeros(m.n)
            rows.append(O @ x + w * (dw * (1 + rel) / size(r0)))
            margins.append(rel)
        Y = np.array(rows)
        X, fallback = dec.decode_batch(Y)
        assert X.shape == (len(rows), m.n)
        assert 0 < len(fallback) < len(rows)
        for i, y in enumerate(Y):
            res = dec.decode(y)
            if i in fallback:
                assert fallback[i].support == res.support
                assert fallback[i].stats == res.stats
            else:
                assert len(res.support) == 0
                assert res.stats == DecodeStats(1, 0, 0)
            np.testing.assert_array_equal(X[i], res.x_hat)
            if margins[i] is not None:
                # the fast path has no margin: every row inside Omega skips decode
                assert (i in fallback) == (margins[i] > 0), (k, margins[i])


def test_decode_refuses_non_finite_windows(vtf):
    # Omega's norm test reads a NaN residual as inside: the window decoded
    # attack-free with a NaN estimate
    dec = WindowDecoder(vtf)
    y = stack(vtf, [[0.1, 0.2, 0.2], [0.101, 0.2, 0.2]])
    assert len(dec.decode(y).support) == 0
    for bad in (np.nan, np.inf, -np.inf):
        yb = y.copy()
        yb[0] = bad
        with pytest.raises(r.ConfigError, match="NaN or infinite"):
            dec.decode(yb)
        with pytest.raises(r.ConfigError, match="window 2 has a NaN or infinite"):
            dec.decode_batch(np.stack([y, y, yb, y]))
