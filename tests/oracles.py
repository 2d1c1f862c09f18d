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


# -- stealthy ramp synthesis, one injection at a time ----------------------------
#
# The greedy ramp as it was built before the slack ledger worked on arrays: a
# dict of per-(window, slot) deviations, a scalar _max_scale per slot, one
# scale() and commit() per injection, and the full-length roll-forward.  The
# batched synth._ramped_plan must reproduce its plans byte for byte.

def max_scale_scalar(base, add, allowed):
    """Largest c >= 0 with ||base + c add|| <= allowed."""
    a = float(add @ add)
    if a < 1e-300:
        return np.inf
    b = float(base @ add)
    cquad = float(base @ base) - allowed * allowed
    disc = b * b - a * cquad
    if disc <= 0:
        return 0.0
    root = (-b + np.sqrt(disc)) / a
    return max(0.0, root)


class DictSlackLedger:
    """Tracks committed per-(window, slot) noise deviations against budgets."""

    def __init__(self, model, w_eff):
        from rse_lab.synth import SLACK_SHARE
        self.C, self.powers, self.N = model.C, model.powers(), model.N
        self.S = w_eff.shape[0]
        self.base = w_eff.copy()
        norms = np.linalg.norm(w_eff, axis=2)
        dw = model.delta_w
        self.allowed = np.minimum(norms + SLACK_SHARE * np.maximum(dw - norms, 0.0), dw)

    def _deviations(self, taus, vecs):
        adds = {}
        for tau, vec in zip(taus, vecs):
            for s in range(max(0, tau - self.N + 1), min(tau, self.S)):
                for k in range(tau - s, self.N):
                    adds[s, k] = adds.get((s, k), 0.0) + self.C @ (self.powers[s + k - tau] @ vec)
        return adds

    def scale(self, taus, vecs):
        c = min((max_scale_scalar(self.base[sk], add, self.allowed[sk])
                 for sk, add in self._deviations(taus, vecs).items()), default=np.inf)
        return 0.0 if not np.isfinite(c) else c

    def commit(self, tau, vec):
        for sk, add in self._deviations([tau], [vec]).items():
            self.base[sk] += add


def roll_forward_full(model, compromised, inj, resets, atol, rtol, what):
    """synth._roll_forward, stepping the generator from t = 0."""
    from rse_lab.model import matvec_rows
    from rse_lab.synth import NotPerfectlyAttackable
    zeta_hist = np.zeros_like(inj)
    zeta = np.zeros(model.n)
    reset_set = set(resets)
    for t in range(len(inj)):
        zeta = zeta + inj[t]
        if t in reset_set:
            if np.linalg.norm(zeta) > 1e-6:
                raise NotPerfectlyAttackable(
                    f"sawtooth failed to reset the attacker state at enforcement time t={t}")
            zeta = np.zeros(model.n)
        zeta_hist[t] = zeta
        zeta = model.A @ zeta
    entries = matvec_rows(model.C, zeta_hist)
    clean = np.ones(model.p, dtype=bool)
    clean[list(compromised.indices0)] = False
    leak = np.abs(entries[:, clean]).max(axis=1, initial=0.0)
    if np.any(leak > np.maximum(atol, rtol * np.linalg.norm(entries, axis=1))):
        raise NotPerfectlyAttackable(f"{what} propagation leaks onto clean sensors")
    entries[:, clean] = 0.0
    return entries, zeta_hist


def ramped_plan_greedy(model, compromised, horizon, noise, policy, t0, period, eps_cap):
    """synth._ramped_plan with one scale() and commit() per injection."""
    from rse_lab.sim import effective_window_noise
    from rse_lab.synth import AttackPlan, NotPerfectlyAttackable, _ChainBasis, _reset_times
    N, p, n = model.N, model.p, model.n
    T_meas = horizon + N - 1
    basis = _ChainBasis(model, compromised)
    if not basis.growing:
        raise NotPerfectlyAttackable(
            "witness eigenvalue on the unit circle without a usable chain: "
            "the propagated attack stays bounded")
    vP, vM = noise.draw(T_meas, n, p)
    ledger = DictSlackLedger(model, effective_window_noise(model, vP, vM, horizon))
    tail_dir = basis.V @ basis.tail()
    resets = _reset_times(policy, compromised, t0, T_meas)
    injections = []
    if not resets:
        for tau in range(t0, T_meas, period):
            c = ledger.scale([tau], [tail_dir])
            if eps_cap is not None:
                c = min(c, eps_cap / max(1e-300, float(np.linalg.norm(
                    model.O_full() @ tail_dir))))
            if c <= 0:
                continue
            vec = c * tail_dir
            ledger.commit(tau, vec)
            injections.append((tau, vec))
    else:
        bounds = [t0] + resets + [T_meas]
        for seg in range(len(bounds) - 1):
            lo = bounds[seg] + (1 if seg > 0 else 0)
            hi = bounds[seg + 1]
            is_final = seg == len(bounds) - 2
            taus = [t for t in range(lo, min(hi, T_meas)) if t >= t0]
            if len(taus) <= basis.q:
                continue
            shape = np.ones(len(taus))   # build up, then tear down
            shape[len(taus) // 2:] = -1.0
            if not is_final:
                M = np.stack([np.linalg.matrix_power(basis.J, hi - tau) @ basis.tail()
                              for tau in taus], axis=1)
                proj = shape - np.linalg.pinv(M) @ (M @ shape)
                if np.linalg.norm(proj) < 1e-12:
                    continue
                shape = proj
            vecs = [s * tail_dir for s in shape]
            scale = ledger.scale(taus, vecs)
            if scale <= 0:
                continue
            for tau, v in zip(taus, vecs):
                vec = scale * v
                ledger.commit(tau, vec)
                injections.append((tau, vec))
    if not injections:
        raise NotPerfectlyAttackable("no admissible injection found (no noise slack)")
    inj = np.zeros((T_meas, n))
    for tau, vec in injections:
        inj[tau] += vec
    entries, zeta_hist = roll_forward_full(model, compromised, inj, resets, 1e-9, 1e-9,
                                           "ramped")
    eps0 = float(np.linalg.norm(model.O_full() @ injections[0][1]))
    return AttackPlan(entries, 0, compromised, epsilon=eps0, zeta=zeta_hist,
                      injections=injections,
                      notes=f"noise-slack ramp, {len(injections)} injections, "
                            f"resets={len(resets)}")


def sustained_attack_greedy(*args, **kwargs):
    """synth.sustained_attack with the ramp built by ramped_plan_greedy."""
    from unittest import mock

    from rse_lab import synth
    with mock.patch.object(synth, "_ramped_plan", ramped_plan_greedy):
        return synth.sustained_attack(*args, **kwargs)


def plan_outcome(build, *args, **kwargs):
    """Everything a plan or a refusal shows, as bytes and plain values, so two
    builders can be compared for equality."""
    try:
        plan = build(*args, **kwargs)
    except Exception as exc:  # the refusal is part of the outcome
        return ("refused", type(exc).__name__, str(exc))
    return ("plan", plan.offset, plan.entries.shape, plan.entries.tobytes(),
            None if plan.zeta is None else plan.zeta.tobytes(),
            [(type(t).__name__, int(t), np.asarray(v).tobytes()) for t, v in plan.injections],
            plan.epsilon, plan.notes)


def stacked_noise_gram_loops(A, C, N, delta_vp, delta_vm):
    """Second-moment structure (up to scale) of the sensor-major stacked noise,
    entry by entry: entry ((i,k),(j,l)) sums the shared process-noise terms of
    w_i(k) = vM_i(k) + sum_{m<k} C_i A^{k-1-m} vP(m), assuming elementwise
    uncorrelated channels with variances delta^2 / dim.  The reference for
    SystemModel.noise_gram."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    p, n = C.shape
    var_m = delta_vm ** 2 / p
    var_p = delta_vp ** 2 / n
    CA = [C @ np.linalg.matrix_power(A, j) for j in range(N)]
    G = np.zeros((p * N, p * N))
    for i in range(p):
        for k in range(N):
            for j in range(p):
                for l in range(N):
                    v = var_m if (i == j and k == l) else 0.0
                    for m in range(min(k, l)):
                        v += var_p * float(CA[k - 1 - m][i] @ CA[l - 1 - m][j])
                    G[i * N + k, j * N + l] = v
    if delta_vm == 0 and delta_vp == 0:
        return np.eye(p * N)
    return G


# -- the unstable witness, searched twice ------------------------------------------
#
# The search as it was before model.unstable_chain became the only one: the
# eigenvalue groups with every geometric multiplicity, one search for the chain
# head, and a second eigen-decomposition and clean-stack rebuild for the chain.
# model.unstable_eigenstructure, unstable_null_intersection and unstable_chain
# must reproduce them bit for bit.  The rank threshold is written out here as
# it was in model.null_basis and model.rank_margin.

def _above_threshold(s):
    from rse_lab.model import RANK_TOL
    return int(np.sum(s > RANK_TOL * max(1.0, float(s[0]))))


def _null_basis_svd(M):
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0 or M.shape[0] == 0:
        return np.eye(M.shape[1])
    _, s, Vh = np.linalg.svd(M)
    return Vh[_above_threshold(s):].conj().T


def _rank_svd(M):
    return _above_threshold(np.linalg.svd(M, compute_uv=False))


def eig_groups(A):
    from rse_lab.model import RANK_TOL
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    vals = np.linalg.eig(A)[0]
    scale = max(1.0, float(np.max(np.abs(vals))) if n else 1.0)
    tol = max(1e-8 * scale, RANK_TOL * scale * 10)
    groups = []
    for lam in sorted(vals, key=lambda z: (-abs(z), np.angle(z))):
        for g in groups:
            if abs(lam - g[0]) <= tol:
                g.append(lam)
                break
        else:
            groups.append([lam])
    out = []
    for g in groups:
        lam = complex(np.mean(g))
        alg = len(g)
        geo = n - _rank_svd(A - lam * np.eye(n))
        out.append((lam, alg, max(1, geo)))
    return out


def unstable_eigenstructure_groups(A):
    from rse_lab.model import STABILITY_MARGIN
    out = [(lam, alg, geo) for lam, alg, geo in eig_groups(A)
           if abs(lam) >= 1.0 - STABILITY_MARGIN]
    return sorted(out, key=lambda t: (-abs(t[0]), np.angle(t[0])))


def unstable_null_intersection_search(model, compromised):
    from rse_lab.model import RANK_TOL, build_O
    O_clean = build_O(model, compromised.complement())
    n = model.n
    for lam, _alg, _geo in unstable_eigenstructure_groups(model.A):
        stacked = np.vstack([model.A - lam * np.eye(n), O_clean.astype(complex)])
        basis = _null_basis_svd(stacked)
        if basis.shape[1] == 0:
            continue
        v = basis[:, 0]
        if abs(lam.imag) <= RANK_TOL * max(1.0, abs(lam)):
            lam_r = float(lam.real)
            j = int(np.argmax(np.abs(v)))
            v = v * np.exp(-1j * np.angle(v[j]))
            w = np.real(v)
            w = w / np.linalg.norm(w)
            return lam_r, w
        plane = np.stack([np.real(v), np.imag(v)], axis=1)
        q, _ = np.linalg.qr(plane)
        return lam, q
    return None


def unstable_chain_search(model, compromised):
    from rse_lab.model import build_O
    hit = unstable_null_intersection_search(model, compromised)
    if hit is None:
        return None
    lam, v = hit
    if isinstance(lam, complex) or np.ndim(v) == 2:
        return lam, [v]
    O_clean = build_O(model, compromised.complement())
    Z = _null_basis_svd(O_clean)
    n = model.n
    alg = 1
    for lam_g, alg_g, _ in unstable_eigenstructure_groups(model.A):
        if abs(lam_g - lam) <= 1e-8 * max(1.0, abs(lam)):
            alg = alg_g
            break
    chain = [v]
    Alam = model.A - lam * np.eye(n)
    scale = max(1.0, float(np.linalg.norm(model.A, 2)))
    while len(chain) < alg:
        coeff, *_ = np.linalg.lstsq(Alam @ Z, chain[-1], rcond=None)
        cand = Z @ coeff
        miss = np.linalg.norm(Alam @ cand - chain[-1])
        if miss > 1e-7 * scale * max(1.0, np.linalg.norm(chain[-1])):
            break
        chain.append(cand)
    return float(lam), chain


# -- the verdicts, each searching its own witnesses ----------------------------------
#
# attackability.py's five verdict functions as they were before the per-set
# record: each one rebuilds the clean window stack, F(S, N) and the unstable
# chain it needs, and analyze runs pa_single_step three times.  The chain's
# head stands in for the deleted unstable_null_intersection.  The reports are
# left to the caller: the verdicts are returned as PaVerdict and PolicyVerdict.

def _head_uncached(model, compromised):
    from rse_lab.model import unstable_chain
    hit = unstable_chain(model, compromised)
    return None if hit is None else (hit[0], hit[1][0])


def pa_single_step_uncached(model, compromised):
    from rse_lab.model import RANK_TOL, ConfigError, build_O, null_basis, rank_margin
    model.check_sensor_sets(compromised=compromised)
    O_clean = build_O(model, compromised.complement())
    rank, _ = rank_margin(O_clean)
    if rank >= model.n:
        return False, None
    z = np.real(null_basis(O_clean)[:, 0])
    z = z / np.linalg.norm(z)
    scale = max(1.0, float(np.linalg.norm(O_clean, 2))) if O_clean.size else 1.0
    if np.linalg.norm(O_clean @ z) > 10 * RANK_TOL * scale:
        raise ConfigError(f"single-step witness fails re-verification at RANK_TOL="
                          f"{RANK_TOL:g}; the rank verdict is numerically unreliable")
    return True, z


def pa_over_time_id1_uncached(model, compromised):
    from rse_lab.attackability import (BRANCH_FULL_RANK_OVERLAP,
                                       BRANCH_RANK_DEFICIENT_OVERLAP, PaVerdict)
    from rse_lab.model import build_overlap_stack, null_basis, rank_margin
    single, _ = pa_single_step_uncached(model, compromised)
    F = build_overlap_stack(model, compromised)
    rank_F, margin_F = rank_margin(F)
    margins = {"rank_overlap": rank_F, "margin_overlap": margin_F}
    if rank_F < model.n:
        w = None
        if single:
            basis = null_basis(F)
            w = np.real(basis[:, 0])
            w /= np.linalg.norm(w)
        return PaVerdict(single, BRANCH_RANK_DEFICIENT_OVERLAP, w,
                         "F rank deficient: over-time iff single-step", margins)
    hit = _head_uncached(model, compromised)
    ok = single and hit is not None
    return PaVerdict(ok, BRANCH_FULL_RANK_OVERLAP, hit,
                     "F full rank: needs unstable eigenvector in clean null space",
                     margins)


def pa_over_time_id2_uncached(model, compromised):
    from rse_lab.attackability import PaVerdict
    from rse_lab.model import unstable_eigenstructure
    single, _ = pa_single_step_uncached(model, compromised)
    unstable = unstable_eigenstructure(model.A)
    hit = _head_uncached(model, compromised)
    ok = single and bool(unstable) and hit is not None
    notes = []
    if not single:
        notes.append("clean sensors keep observability")
    if not unstable:
        notes.append("A is stable")
    if unstable and hit is None:
        notes.append("no unstable eigenvector in clean null space")
    return PaVerdict(ok, "id2", hit, "; ".join(notes) or "all three conditions hold",
                     {"unstable_count": len(unstable)})


def policy_prevents_pa_uncached(model, compromised, policy, auth_subset, detector="II"):
    from rse_lab.attackability import PolicyVerdict
    from rse_lab.detectors import detector_name
    from rse_lab.model import (SensorSet, _stack_rows, build_overlap_stack,
                               classical_obs_stack, rank_margin)
    det = detector_name(detector)
    model.check_sensor_sets(compromised=compromised, auth_subset=auth_subset,
                            policy=None if policy is None else policy.sensors)
    over_time = pa_over_time_id2_uncached if det == "II" else pa_over_time_id1_uncached
    if not (verdict := over_time(model, compromised)):
        name = "pa_over_time_id2" if det == "II" else "pa_over_time_id1"
        return PolicyVerdict(True, "not perfectly attackable without authentication",
                             {name: verdict})
    checks = {}
    if len(auth_subset) == 0:
        return PolicyVerdict(False, "empty authentication subset", checks)
    covered = policy is not None and set(auth_subset) <= set(policy.sensors)
    checks["period"] = period = policy.period if covered else None
    if period is None:
        return PolicyVerdict(False, "policy is not periodic with a common bounded "
                                    "period on the authenticated subset", checks)
    obs_F = classical_obs_stack(model, auth_subset)
    rank_obs, margin_obs = rank_margin(obs_F)
    checks["obs_F_rank"] = rank_obs
    checks["obs_F_margin"] = margin_obs
    if rank_obs < model.n:
        return PolicyVerdict(False, "(A, P_F C) unobservable", checks)
    key = _stack_rows(np.linalg.matrix_power(model.A, period),
                      model.C[list(auth_subset.indices0)], model.N)
    key = key.reshape(len(auth_subset), model.N, model.n).swapaxes(0, 1).reshape(-1, model.n)
    rank_key, margin_key = rank_margin(key)
    checks["key_rank"] = rank_key
    checks["key_margin"] = margin_key
    key_ok = rank_key >= model.n
    if not key_ok:
        checks["key_matrix_warning"] = (
            "observable (A, P_F C) but the period-decimated stack loses rank")
    if det == "II":
        if key_ok:
            return PolicyVerdict(True, "bounded period with observable subset "
                                       "and full-rank decimated stack", checks)
        return PolicyVerdict(False, "decimated stack rank deficient for this period", checks)
    F_all = build_overlap_stack(model, SensorSet.all(model.p))
    rank_FS, margin_FS = rank_margin(F_all)
    checks["rank_overlap_all"] = rank_FS
    checks["margin_overlap_all"] = margin_FS
    if rank_FS >= model.n:
        if key_ok:
            return PolicyVerdict(True, "F(S,N) full rank: any bounded period works", checks)
        return PolicyVerdict(False, "decimated stack rank deficient for this period", checks)
    if period == 1 and key_ok:
        return PolicyVerdict(True, "F(S,N) rank deficient: period-1 authentication "
                                   "re-establishes the single-window block each step", checks)
    return PolicyVerdict(False, "F(S,N) rank deficient: single-injection attacks "
                                "slip between authentications unless the period is 1", checks)


def analyze_uncached(model, compromised):
    from rse_lab.model import build_O, rank_margin
    single, z = pa_single_step_uncached(model, compromised)
    v1 = pa_over_time_id1_uncached(model, compromised)
    v2 = pa_over_time_id2_uncached(model, compromised)
    O_clean = build_O(model, compromised.complement())
    _, margin_single = rank_margin(O_clean)
    return {
        "compromised": list(compromised.indices),
        "pa_single_step": {"attackable": single, "witness": None if z is None else z.tolist(),
                           "margin": margin_single},
        "pa_over_time_id1": v1,
        "pa_over_time_id2": v2,
    }


def strict_report(v):
    """v as strict JSON values: verdicts as the dicts of their fields, arrays
    and tuples as lists, a complex number as [re, im], a non-finite float as
    None."""
    import dataclasses
    if dataclasses.is_dataclass(v):
        v = {f.name: getattr(v, f.name) for f in dataclasses.fields(v)}
    if isinstance(v, dict):
        return {k: strict_report(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [strict_report(x) for x in v]
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, float) and not np.isfinite(v):
        return None
    return v


def sustained_attack_uncached(model, compromised, **kwargs):
    """synth.sustained_attack on the verdicts above, with the chain, F(S, N)'s
    raw null vector and A's stability searched where synthesis searched them."""
    from types import SimpleNamespace
    from unittest import mock

    from rse_lab import synth
    from rse_lab.model import (build_O, build_overlap_stack, unstable_chain,
                               unstable_eigenstructure)

    def searched(model, compromised):
        basis = _null_basis_svd(build_overlap_stack(model, compromised))
        return SimpleNamespace(O_c=build_O(model, compromised.complement()),
                               chain=unstable_chain(model, compromised),
                               null_F=np.real(basis[:, 0]) if basis.shape[1] else None,
                               unstable=unstable_eigenstructure(model.A))
    with mock.patch.multiple(synth, _record=searched,
                             pa_over_time_id1=pa_over_time_id1_uncached,
                             pa_over_time_id2=pa_over_time_id2_uncached):
        return synth.sustained_attack(model, compromised, **kwargs)


# -- the decoder before the per-set record -------------------------------------------
#
# decoder.py's _SupportContext, WindowDecoder.feasibility and decode, and
# detector_threshold, as they were when each decoder kept its own operator
# cache keyed by clean indices and walked a list of every support, building
# each support's clean set as it went.  The decoder on the model's records
# must give the same bits.

class _SupportContext:
    """Cached linear operators for one candidate clean set."""

    __slots__ = ("rows", "O_c", "G", "pinv")

    def __init__(self, model, clean):
        self.rows = clean.block_rows(model.N)
        self.O_c = model.O_full()[self.rows]
        if self.O_c.shape[0] == 0:
            self.G = np.zeros((model.n, 0))
            self.pinv = self.G
            return
        self.pinv = np.linalg.pinv(self.O_c)
        gram = model.noise_gram()
        G = None
        if gram is not None and len(clean) == model.p:
            try:
                Si = np.linalg.inv(gram)
                M = model.O_full().T @ Si
                G = np.linalg.solve(M @ model.O_full(), M)
            except np.linalg.LinAlgError:
                G = None
        self.G = self.pinv if G is None else G


class DecoderBefore:
    def __init__(self, model):
        from rse_lab.decoder import NoiseFeasibleSet
        from rse_lab.model import SensorSet
        self.model = model
        self.omega = NoiseFeasibleSet()
        self._ctx = {}
        self._supports = [SensorSet.of(c, model.p) for size in range(model.p + 1)
                          for c in itertools.combinations(range(1, model.p + 1), size)]

    def _context(self, clean):
        if clean.indices not in self._ctx:
            self._ctx[clean.indices] = _SupportContext(self.model, clean)
        return self._ctx[clean.indices]

    def feasibility(self, clean, y_window, stats=None):
        from rse_lab.decoder import MAX_ROUNDS, FeasibilityResult
        ctx = self._context(clean)
        if ctx.O_c.shape[0] == 0:
            return FeasibilityResult("feasible", np.zeros(self.model.n), np.empty(0), 0.0, 0)
        y_c = y_window[ctx.rows]
        N, dw, omega = self.model.N, self.model.delta_w, self.omega
        x_hat = ctx.pinv @ y_c
        r = y_c - ctx.O_c @ x_hat
        sqrt_N = np.sqrt(N)
        rho = float(np.linalg.norm(r))
        if rho > sqrt_N * dw + max(10 * omega.eps_feas, 1e-12):
            return FeasibilityResult("infeasible", None, None, rho / sqrt_N - dw, 0)
        x0 = ctx.G @ y_c
        r0 = y_c - ctx.O_c @ x0
        if omega.inside(r0, dw, N):
            return FeasibilityResult("feasible", x0, r0, 0.0, 0)
        lam = np.full(N, 1.0 / N)
        status, gap, eps = "indeterminate", 0.0, omega.eps_feas
        for it in range(1, MAX_ROUNDS + 1):
            f = omega.slot_sums(r, N)
            g, top = float(lam @ f), np.sqrt(f.max())
            if top <= dw:
                status = "feasible"
            elif g > (dw + eps) ** 2:
                status, gap = "infeasible", np.sqrt(g) - dw
            elif top <= dw + eps and top - np.sqrt(g) <= eps:
                status, gap = "feasible", top - dw
            if status != "indeterminate" or it == MAX_ROUNDS:
                break
            lam = 0.5 * (lam + lam * f / g)
            sw = np.tile(np.sqrt(lam), len(r) // N)
            x_hat = np.linalg.lstsq(ctx.O_c * sw[:, None], y_c * sw, rcond=None)[0]
            r = y_c - ctx.O_c @ x_hat
        if stats is not None:
            stats.oracle_iterations += it
            stats.indeterminate += status == "indeterminate"
        if status != "feasible":
            x_hat = r = None
        return FeasibilityResult(status, x_hat, r, gap, it, lam if status == "infeasible" else None)

    def decode(self, y_window):
        from rse_lab.decoder import DecodeResult, DecodeStats
        y = np.asarray(y_window, dtype=float).ravel()
        stats = DecodeStats()
        O = self.model.O_full()
        for support in self._supports:
            stats.supports_tested += 1
            clean = support.complement()
            res = self.feasibility(clean, y, stats)
            if not res.feasible:
                continue
            w_hat = np.zeros_like(y)
            ctx = self._context(clean)
            if len(ctx.rows):
                w_hat[ctx.rows] = res.w_hat
            a_hat = np.zeros_like(y)
            if len(support):
                rows_a = support.block_rows(self.model.N)
                a_hat[rows_a] = y[rows_a] - (O @ res.x_hat)[rows_a]
            return DecodeResult(res.x_hat, a_hat, w_hat, support, True, stats)
        raise AssertionError("support = S is always feasible; unreachable")


def detector_threshold_before(model):
    from rse_lab.decoder import innovation_bound
    from rse_lab.model import SensorSet, singular_values
    base = innovation_bound(model)
    if model.noise_gram() is None:
        return base
    gain = float(np.linalg.norm(_SupportContext(model, SensorSet.all(model.p)).G, 2))
    return base * max(1.0, gain * float(singular_values(model.O_full())[-1]))
