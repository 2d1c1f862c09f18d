import itertools

import numpy as np
import pytest

import rse_lab as r
from rse_lab.decoder import PER_STEP, STACKED, NoiseFeasibleSet, WindowDecoder

from conftest import random_observable_model
from oracles import grid_feasibility


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
    res = r.feasibility_oracle(stable_two_state, r.SensorSet.all(1), y)
    assert res.feasible
    assert np.allclose(res.x_hat, x0, atol=1e-9)
    assert np.linalg.norm(res.w_hat) <= 1e-9


def test_oracle_empty_clean_set_vacuous(stable_two_state):
    res = r.feasibility_oracle(stable_two_state, r.SensorSet.empty(1), np.array([5.0, 7.0]))
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
    res = r.feasibility_oracle(m, r.SensorSet.all(1), y)
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
        assert res.error_against(x0) <= bound


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
    assert res.error_against(x0) <= m.O_pinv_norm() * 2 * np.sqrt(2) * m.delta_w
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
        basis = r.null_basis(r.build_O(m, K.complement()), m.rank_tol)
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


def test_omega_modes_per_step_vs_stacked():
    m = r.SystemModel(A=[[0.9, 0.2], [-0.1, 0.8]], B=None,
                      C=[[1, 0], [0, 1], [1, 1]], delta_w=0.1, N=2)
    # all the noise mass on one window slot: stacked ball allows sqrt(N) more
    w_rows = np.zeros((2, 3))
    w_rows[0] = [0.078, 0.078, 0.078]  # slot-0 norm ~ .135 > delta_w
    y = m.O_full() @ np.array([0.1, 0.2]) + stack(m, w_rows)
    per = r.feasibility_oracle(m, r.SensorSet.all(3), y,
                               NoiseFeasibleSet(mode=PER_STEP))
    stk = r.feasibility_oracle(m, r.SensorSet.all(3), y,
                               NoiseFeasibleSet(mode=STACKED))
    assert stk.feasible
    # per-step may still absorb part of the bump into x_hat; verify against grid
    rows = r.SensorSet.all(3).block_rows(2)
    ub, lb = grid_feasibility(m.O_full()[rows], y[rows], m.delta_w, 2, mode="per_step")
    if ub <= 0:
        assert per.feasible
    elif lb > 1e-7:
        assert not per.feasible


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


def test_oracle_indeterminate_band():
    # residual gap inside (eps, 10 eps): numerically too close to call
    m = r.SystemModel(A=[[0.3, 1.0], [0.0, 0.5]], B=None, C=[[1.0, 0.0]],
                      delta_w=0.0, N=3)
    Om = m.O_full()
    perp = np.linalg.svd(Om, full_matrices=True)[0][:, 2]
    y = Om @ np.array([0.1, 0.2]) + 5e-8 * perp
    res = r.feasibility_oracle(m, r.SensorSet.all(1), y)
    assert res.status == "indeterminate"
    assert 1e-8 < res.gap < 1e-7


def test_window_length_one():
    m = r.SystemModel(A=[[0.5]], B=None, C=[[1.0], [1.0]], delta_w=0.05, N=1)
    res = r.decode(m, np.array([0.3, 0.31]))
    assert res.support == r.SensorSet.empty(2)
    assert abs(res.x_hat[0] - 0.305) < 0.05
    assert np.allclose(r.build_overlap_stack(m, r.SensorSet.of([1], 2)), [[1.0]])
