"""Constructive synthesis of stealthy attack sequences.

Three constructions, matching the three ways a system can be attacked:

* single-window attacks O z with z in the clean sensors' null space;
* cold-start propagated attacks through the null space of F (available when F
  is rank deficient; the start magnitude is a free parameter and the sequence
  stays exactly absorbable window by window);
* noise-slack ramped attacks for the innovation-checking detector: small
  injections hidden inside the per-step noise budget, each propagated through
  the plant dynamics along an unstable eigenvector or generalized-eigenvector
  chain.  By linearity the injections superpose, so the builder keeps a ledger
  of committed per-window noise deviations and sizes every new injection
  against the remaining realized slack.  Under an authentication policy the
  injection pattern between consecutive enforcement times is projected onto
  the subspace that returns the attacker state to zero exactly at enforcement.

Growth is genuinely unbounded, so plans outlive double precision eventually:
once the injected error exceeds roughly delta_w / machine-epsilon (~1e14 for
the bundled case study) the decoder's own float cancellation starts raising
alarms.  Keep geometric-growth horizons inside that regime.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .attackability import pa_over_time_id1, pa_over_time_id2, pa_single_step
from .model import (
    ConfigError,
    SensorSet,
    SystemModel,
    build_overlap_stack,
    build_O,
    matvec_rows,
    null_basis,
    rank_with_tol,
    unstable_chain,
    unstable_eigenstructure,
)
from .sim import AuthPolicy, NoiseSpec, effective_window_noise

__all__ = [
    "NotPerfectlyAttackable",
    "AttackPlan",
    "single_step_attack",
    "sustained_attack",
    "stealth_slack",
]

SLACK_SHARE = 0.5  # share of each window slot's realized noise slack a ramp may spend


class NotPerfectlyAttackable(RuntimeError):
    """The requested attack has no stealthy construction for this system."""


@dataclass
class AttackPlan:
    """Per-step injection schedule plus the generator state that produced it."""

    entries: np.ndarray          # (T, p) injected vectors for t = offset .. offset+T-1
    offset: int
    compromised: SensorSet
    target_detector: str
    epsilon: float = 0.0
    zeta: Optional[np.ndarray] = None       # generator state per step, same indexing
    injections: list = field(default_factory=list)  # (t, state-space vector)
    notes: str = ""

    @property
    def horizon(self) -> int:
        return self.entries.shape[0]

    def at(self, t: int) -> np.ndarray:
        k = t - self.offset
        if 0 <= k < self.entries.shape[0]:
            return self.entries[k]
        return np.zeros(self.entries.shape[1])

    def as_callable(self):
        return self.at

    def stacked_window(self, t: int, N: int) -> np.ndarray:
        """Sensor-major stacked attack over the window anchored at t."""
        rows = np.stack([self.at(t + k) for k in range(N)])
        return rows.T.ravel()

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        p = self.entries.shape[1]
        w.writerow(["t"] + [f"a_{i+1}" for i in range(p)])
        for k in range(self.entries.shape[0]):
            w.writerow([self.offset + k] + [f"{v:.12g}" for v in self.entries[k]])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, compromised: SensorSet,
                 detector: str = "I") -> "AttackPlan":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or not rows[0] or rows[0][0] != "t":
            raise ConfigError("attack CSV must start with header t,a_1..a_p")
        p = len(rows[0]) - 1
        times = []
        vals = []
        for r in rows[1:]:
            if not r:
                continue
            times.append(int(r[0]))
            vals.append([float(v) for v in r[1:]])
        if not times:
            return cls(np.zeros((0, p)), 0, compromised, detector)
        t0, t1 = min(times), max(times)
        entries = np.zeros((t1 - t0 + 1, p))
        for t, v in zip(times, vals):
            entries[t - t0] = v
        return cls(entries, t0, compromised, detector)


def single_step_attack(model: SystemModel, compromised: SensorSet,
                       magnitude: float) -> np.ndarray:
    """Stacked single-window attack O z with ||z|| = magnitude.

    z is the deterministic unit null vector of the clean sensors' stack; the
    decode of y + attack keeps an empty support while shifting the state
    estimate by z.
    """
    ok, z = pa_single_step(model, compromised)
    if not ok:
        raise NotPerfectlyAttackable(
            f"clean sensors {compromised.complement()} keep observability")
    if magnitude < 0:
        raise ConfigError("magnitude must be nonnegative")
    return model.O_full() @ (magnitude * z)


def stealth_slack(window_noise_norms, delta_w: float, N: int) -> float:
    """Admissible stacked-attack budget hidden by the realized window noise.

    Positive slack sqrt(N) delta_w - max ||w|| when the noise is strictly
    inside its bound; at the boundary the gamma-construction (attack partially
    cancelling the noise) still allows a budget of sqrt(N) delta_w.
    """
    if delta_w == 0:
        return 0.0
    radius = float(np.sqrt(N) * delta_w)
    norms = np.atleast_1d(np.asarray(window_noise_norms, dtype=float))
    worst = float(np.max(norms)) if norms.size else 0.0
    tol = 1e-9 * max(1.0, radius)
    if worst > radius + tol:
        raise ConfigError("window noise exceeds its declared bound")
    slack = radius - worst
    if slack <= tol:
        return radius
    return slack


# -- sustained attacks --------------------------------------------------------

class _ChainBasis:
    """Real coordinates for propagation along an unstable witness.

    Real chain: V columns [v_1 .. v_q], J upper bidiagonal with (A - lambda) v_{j+1} = v_j.
    Complex pair: V is the invariant 2-plane, J the scaled rotation block.
    """

    def __init__(self, model: SystemModel, compromised: SensorSet):
        hit = unstable_chain(model, compromised)
        if hit is None:
            raise NotPerfectlyAttackable(
                "no unstable eigenvector inside the clean sensors' null space")
        lam, chain = hit
        if isinstance(lam, complex):
            plane = chain[0]
            self.V = plane
            a, b = lam.real, lam.imag
            self.J = np.array([[a, b], [-b, a]])
            self.q = 2
            self.growing = abs(lam) > 1.0 + 1e-12
        else:
            V = np.stack(chain, axis=1)
            q = V.shape[1]
            J = np.eye(q) * lam
            for j in range(1, q):
                J[j - 1, j] = 1.0
            self.V = V
            self.J = J
            self.q = q
            self.growing = (abs(lam) > 1.0 + 1e-12) or q >= 2
        self.lam = lam
        # the whole propagated trajectory must stay invisible to clean sensors
        O_clean = build_O(model, compromised.complement())
        if O_clean.shape[0]:
            leak = float(np.linalg.norm(O_clean @ self.V, 2))
            if leak > 1e-6 * max(1.0, float(np.linalg.norm(O_clean, 2))):
                raise NotPerfectlyAttackable(
                    "witness chain leaks onto clean sensors; cannot propagate")

    def tail(self) -> np.ndarray:
        e = np.zeros(self.q)
        e[-1] = 1.0
        return e


def _max_scale(base: np.ndarray, add: np.ndarray, allowed: float) -> float:
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


class _SlackLedger:
    """Tracks committed per-(window, slot) noise deviations against budgets."""

    def __init__(self, model: SystemModel, w_eff: np.ndarray):
        self.C, self.powers, self.N = model.C, model.powers(), model.N
        self.S = w_eff.shape[0]
        self.base = w_eff.copy()              # noise + committed deviations
        norms = np.linalg.norm(w_eff, axis=2)
        dw = model.delta_w
        # consume at most SLACK_SHARE of each slot's realized slack
        self.allowed = np.minimum(norms + SLACK_SHARE * np.maximum(dw - norms, 0.0), dw)

    def _deviations(self, taus, vecs) -> dict:
        """(s, k) -> summed noise deviation C A^{s+k-tau} v of the injections
        (tau, v) on every window slot they reach."""
        adds: dict = {}
        for tau, vec in zip(taus, vecs):
            for s in range(max(0, tau - self.N + 1), min(tau, self.S)):
                for k in range(tau - s, self.N):
                    adds[s, k] = adds.get((s, k), 0.0) + self.C @ (self.powers[s + k - tau] @ vec)
        return adds

    def scale(self, taus, vecs) -> float:
        """Largest shared scale c >= 0 for the injections (tau, c v)."""
        c = min((_max_scale(self.base[sk], add, self.allowed[sk])
                 for sk, add in self._deviations(taus, vecs).items()), default=np.inf)
        return 0.0 if not np.isfinite(c) else c

    def commit(self, tau: int, vec: np.ndarray) -> None:
        for sk, add in self._deviations([tau], [vec]).items():
            self.base[sk] += add


def _reset_times(policy: Optional[AuthPolicy], compromised: SensorSet,
                 start: int, t_end: int) -> list[int]:
    if policy is None:
        return []
    watched = [i - 1 for i in policy.sensors() if i in compromised.indices]
    return (np.flatnonzero(policy.mask(t_end)[start:, watched].any(axis=1)) + start).tolist()


def sustained_attack(model: SystemModel, compromised: SensorSet, *,
                     detector: str = "II",
                     horizon: int,
                     noise: Optional[NoiseSpec] = None,
                     policy: Optional[AuthPolicy] = None,
                     start: Optional[int] = None,
                     epsilon: Optional[float] = None,
                     period: int = 1) -> AttackPlan:
    """Build a stealthy over-time attack plan for `horizon` decoded steps.

    No entry is nonzero before `start` (default N - 1, the first step that
    completes a window).  detector "I" with a rank-deficient F uses the
    cold-start construction: one state injection of norm epsilon (default
    100) through null(F), plus, on a plant without unstable modes, a
    null-space drive growing by 0.05 max(1, epsilon) per step.  Otherwise the
    noise-slack ramp is used; it needs the realized noise (omniscient
    attacker) and an over-time verdict for the targeted detector.  The ramp
    injects every `period` steps and spends at most SLACK_SHARE of each
    window slot's realized noise slack; without resets, epsilon caps the
    stacked norm ||O v|| of every injection v.  A policy authenticating
    compromised sensors turns the plan into a sawtooth that returns the
    attacker state to zero exactly at every enforcement time; growth is then
    bounded, as the policy analysis predicts.  A period below 1 or a negative
    epsilon raises ConfigError.
    """
    det = detector.upper().replace("ID_", "")
    if det not in ("I", "II", "1", "2"):
        raise ConfigError(f"unknown detector {detector!r}")
    det = "I" if det in ("I", "1") else "II"
    if int(period) < 1:
        raise ConfigError(f"attack period must be >= 1, got {period}")
    if epsilon is not None and not float(epsilon) >= 0:
        raise ConfigError(f"attack epsilon must be >= 0, got {epsilon}")
    N = model.N
    t0 = (N - 1) if start is None else int(start)
    if t0 < N - 1:
        raise ConfigError(f"attack start must leave a complete ramp window (>= {N - 1})")
    T_meas = horizon + N - 1
    if t0 >= T_meas:
        raise ConfigError("attack start beyond plan horizon")

    F = build_overlap_stack(model, compromised)
    branch_a = rank_with_tol(F, model.rank_tol) < model.n

    if det == "I" and branch_a and (policy is None or not _reset_times(policy, compromised, 0, T_meas)):
        verdict = pa_over_time_id1(model, compromised)
        if not verdict:
            raise NotPerfectlyAttackable(verdict.notes)
        eta = 100.0 if epsilon is None else float(epsilon)
        return _cold_start_plan(model, compromised, F, horizon, eta, t0)

    verdict = pa_over_time_id2(model, compromised) if det == "II" \
        else pa_over_time_id1(model, compromised)
    if not verdict:
        raise NotPerfectlyAttackable(verdict.notes)
    if noise is None:
        raise ConfigError("ramped synthesis needs the scenario noise stream")
    return _ramped_plan(model, compromised, det, horizon, noise, policy, t0,
                        int(period), epsilon)


def _roll_forward(model: SystemModel, compromised: SensorSet, inj: np.ndarray,
                  resets: list[int], atol: float, rtol: float,
                  what: str) -> tuple[np.ndarray, np.ndarray]:
    """Attack entries C zeta(t) and attacker states zeta(t) of the generator
    zeta(t) = A zeta(t-1) + inj[t], with zeta snapped to zero at the resets.

    A clean sensor's entry above max(atol, rtol ||C zeta(t)||) refuses the
    plan; below that it is float dust and is zeroed.
    """
    zeta_hist = np.zeros_like(inj)
    zeta = np.zeros(model.n)
    reset_set = set(resets)
    for t in range(len(inj)):
        zeta = zeta + inj[t]
        if t in reset_set:
            # the pattern was solved to land exactly on zero; snap the float dust
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


def _cold_start_plan(model: SystemModel, compromised: SensorSet, F: np.ndarray,
                     horizon: int, eta: float, t0: int) -> AttackPlan:
    T_meas = horizon + model.N - 1
    # a stable A shrinks the propagated state; a growing null-space drive
    # keeps the error above any bound eventually
    stable = not unstable_eigenstructure(model.A, model.stability_margin, model.rank_tol)
    gain = 0.05 * max(1.0, eta) if stable else 0.0
    z = np.real(null_basis(F, model.rank_tol)[:, 0])
    anchor = t0 - (model.N - 1)
    inj = np.zeros((T_meas, model.n))
    inj[anchor] = z / np.linalg.norm(z) * eta
    if gain != 0.0:
        inj[anchor + 1:] = (gain * np.arange(1, T_meas - anchor))[:, None] * z
    entries, zeta_hist = _roll_forward(model, compromised, inj, [], 1e-6 * max(1.0, eta),
                                       0.0, "cold-start")
    # analytically zero before t0 (F z = 0 kills powers up to N-2); snap the dust
    early = np.flatnonzero(np.abs(entries[:t0]).max(axis=1) > 1e-9 * max(1.0, eta))
    if early.size:
        raise NotPerfectlyAttackable(
            f"cold-start attack is nonzero at t={early[0]}, before its start t0={t0}")
    entries[:t0] = 0.0
    injections = [(t, inj[t]) for t in range(anchor, T_meas if gain else anchor + 1)]
    return AttackPlan(entries, 0, compromised, "I", epsilon=eta, zeta=zeta_hist,
                      injections=injections,
                      notes=f"cold start through null(F), eta={eta:g}, drive gain={gain:g}")


def _half_and_half(g: int) -> np.ndarray:
    """Base sawtooth pattern: build up, then tear down."""
    c = np.ones(g)
    c[g // 2:] = -1.0
    return c


def _ramped_plan(model: SystemModel, compromised: SensorSet, det: str,
                 horizon: int, noise: NoiseSpec, policy: Optional[AuthPolicy],
                 t0: int, period: int, eps_cap: Optional[float]) -> AttackPlan:
    N, p, n = model.N, model.p, model.n
    T_meas = horizon + N - 1
    basis = _ChainBasis(model, compromised)
    if not basis.growing:
        raise NotPerfectlyAttackable(
            "witness eigenvalue on the unit circle without a usable chain: "
            "the propagated attack stays bounded")

    vP, vM = noise.draw(T_meas, n, p)
    ledger = _SlackLedger(model, effective_window_noise(model, vP, vM, horizon))
    tail_dir = basis.V @ basis.tail()

    resets = _reset_times(policy, compromised, t0, T_meas)
    injections: list[tuple[int, np.ndarray]] = []

    if not resets:
        # free-running growth: greedy injections, each inside the remaining slack
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
        # sawtooth: every segment must return the attacker state to zero at
        # the next enforcement time
        bounds = [t0] + resets + [T_meas]
        for seg in range(len(bounds) - 1):
            lo = bounds[seg] + (1 if seg > 0 else 0)
            hi = bounds[seg + 1]          # next enforcement time (or plan end)
            is_final = seg == len(bounds) - 2
            taus = [t for t in range(lo, min(hi, T_meas)) if t >= t0]
            if len(taus) <= basis.q:
                continue
            shape = _half_and_half(len(taus))
            if not is_final:
                # constraint: sum_tau J^{hi - tau} e_q c_tau = 0 (exact zero at hi)
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
    entries, zeta_hist = _roll_forward(model, compromised, inj, resets, 1e-9, 1e-9, "ramped")
    eps0 = float(np.linalg.norm(model.O_full() @ injections[0][1]))
    return AttackPlan(entries, 0, compromised, det, epsilon=eps0, zeta=zeta_hist,
                      injections=injections,
                      notes=f"noise-slack ramp, {len(injections)} injections, "
                            f"resets={len(resets)}")
