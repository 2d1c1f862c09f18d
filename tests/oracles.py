"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's feasibility machinery: feasibility is
decided by evaluating the constraint violation on an explicit grid of states,
infeasibility certificates by an independent weighted least-squares solve, and
observability loss by scanning unit directions on a sphere grid.
"""

import itertools

import numpy as np

GRID_BOX = 2.0
COARSE_STEP = 0.04
FINE_STEP = 0.001


def _violation(O_c, y_c, X, delta_w, N):
    """Constraint violation of every state row in X: max over window slots of
    (slot residual norm - delta_w); <= 0 means feasible at that state."""
    R = y_c[None, :] - X @ O_c.T            # (m, rows)
    q = O_c.shape[0] // N
    block = np.linalg.norm(R.reshape(len(X), q, N), axis=1)  # (m, N) cross-sensor norms per slot
    return np.max(block - delta_w, axis=1)


def grid_feasibility(O_c, y_c, delta_w, N, box=GRID_BOX):
    """Complete two-stage grid search over x in [-box, box]^2.

    Returns (ub, lb) bracketing the in-box minimum violation: ub is attained
    at an explicit grid point, lb follows from the Lipschitz constant of the
    violation (<= ||O_c||_2).  Feasible-in-box iff the true minimum <= 0, so
    ub <= 0 certifies feasibility and lb > 0 certifies infeasibility.
    """
    assert O_c.shape[1] == 2, "grid oracle is for 2-state instances"
    L = max(np.linalg.norm(O_c, 2), 1e-12)
    cb = L * COARSE_STEP * np.sqrt(2) / 2
    fb = L * FINE_STEP * np.sqrt(2) / 2
    axis = np.arange(-box, box + COARSE_STEP / 2, COARSE_STEP)
    Xc = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    vc = _violation(O_c, y_c, Xc, delta_w, N)
    ub = float(vc.min())
    if ub <= 0:
        return ub, ub - cb
    if ub - cb > 0:
        return ub, ub - cb
    # refine every coarse point that could hide a feasible state nearby
    hot = Xc[vc <= ub + 2 * cb + 1e-12]
    offs = np.arange(-COARSE_STEP, COARSE_STEP + FINE_STEP / 2, FINE_STEP)
    d2 = np.stack(np.meshgrid(offs, offs, indexing="ij"), axis=-1).reshape(-1, 2)
    fine_best = np.inf
    for c in hot:
        vf = _violation(O_c, y_c, c[None, :] + d2, delta_w, N)
        fine_best = min(fine_best, float(vf.min()))
        if fine_best <= 0:
            return fine_best, fine_best - fb
    # unrefined coarse neighborhoods all sit above cb; refined region above fine_best - fb
    return float(fine_best), float(min(fine_best - fb, cb))


def weighted_ls_value(O_c, y_c, weights, N):
    """min_x sum_k weights_k ||r_k(x)||^2 for r = y_c - O_c x, by lstsq on rows
    scaled by sqrt(weights).  The groups k are the N window slots of the
    sensor-major rows (row j lies in slot j mod N).  For weights in the simplex
    this value is a lower bound on (min_x max_k ||r_k(x)||)^2, so above
    delta_w^2 it certifies infeasibility.
    """
    weights = np.asarray(weights, dtype=float)
    assert np.all(weights >= 0) and abs(weights.sum() - 1.0) <= 1e-12
    slot = np.arange(O_c.shape[0]) % N
    scale = np.sqrt(weights[slot])
    x = np.linalg.lstsq(O_c * scale[:, None], y_c * scale, rcond=None)[0]
    return float(np.sum(weights[slot] * (y_c - O_c @ x) ** 2))


def exhaustive_min_support(model, y, delta_w):
    """Minimum-cardinality support by exhaustive enumeration with the grid
    feasibility oracle on each candidate's clean rows.

    Returns (support tuple or None, verdicts) where None flags a
    boundary-ambiguous candidate (caller should skip the instance); verdicts
    maps each candidate to "feasible" / "infeasible" / "ambiguous".
    """
    p, N = model.p, model.N
    O = model.O_full()
    verdicts = {}
    chosen = None
    for size in range(p + 1):
        for comb in itertools.combinations(range(1, p + 1), size):
            clean = [i for i in range(1, p + 1) if i not in comb]
            if not clean:
                verdicts[comb] = "feasible"
                continue
            rows = np.concatenate([np.arange((i - 1) * N, i * N) for i in clean])
            ub, lb = grid_feasibility(O[rows], y[rows], delta_w, N)
            if ub <= 0:
                verdicts[comb] = "feasible"
            elif lb > 0:
                verdicts[comb] = "infeasible"
            else:
                verdicts[comb] = "ambiguous"
    for size in range(p + 1):
        for comb in itertools.combinations(range(1, p + 1), size):
            v = verdicts[comb]
            if v == "feasible":
                return comb, verdicts
            if v == "ambiguous":
                return None, verdicts
    return tuple(range(1, p + 1)), verdicts


def sphere_grid(n, count=20000, seed=0):
    """Deterministic quasi-uniform unit directions in R^n."""
    if n == 2:
        th = np.linspace(0, np.pi, count, endpoint=False)  # directions mod sign
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def min_direction_on_grid(M, n, count=20000):
    """Unit direction minimizing ||M z|| over the sphere grid, with its value."""
    Z = sphere_grid(n, count)
    if M.shape[0] == 0:
        return Z[0], 0.0
    vals = np.linalg.norm(Z @ M.T, axis=1)
    k = int(np.argmin(vals))
    return Z[k], float(vals[k])
