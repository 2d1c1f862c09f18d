"""Constructive synthesis of stealthy attack sequences.

A single-window attack needs no builder: it is the stacked O_full() @ (c z)
for the witness z of attackability.pa_single_step.  The sustained attacks
come in two constructions:

* cold-start propagated attacks through the null space of F (available when F
  is rank deficient; the start magnitude is a free parameter and the sequence
  stays exactly absorbable window by window);
* noise-slack ramped attacks for the innovation-checking detector: small
  injections hidden inside the per-step noise budget, each propagated through
  the plant dynamics along an unstable eigenvector or generalized-eigenvector
  chain.  The injections superpose, so a ledger of committed per-window-slot
  noise deviations (_SlackLedger) sizes each one greedily against the slack
  the earlier ones left.  An injection reaches only the slots of the N - 1
  windows before it, so units whose slots do not overlap are sized and
  committed as one array batch.  Under an authentication policy each segment
  between enforcement times is a unit that returns the attacker state to
  zero exactly at the next one.

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

from .attackability import _record, pa_over_time_id1, pa_over_time_id2
from .detectors import detector_name
from .model import ConfigError, SensorSet, SystemModel, as_int, matvec_rows
from .sim import AuthPolicy, NoiseSpec, _csv_text, effective_window_noise

__all__ = ["NotPerfectlyAttackable", "AttackPlan", "sustained_attack"]

SLACK_SHARE = 0.5  # share of each window slot's realized noise slack a ramp may spend


class NotPerfectlyAttackable(RuntimeError):
    """The requested attack has no stealthy construction for this system."""


@dataclass
class AttackPlan:
    """Per-step injection schedule plus the generator state that produced it."""

    entries: np.ndarray          # (T, p) injected vectors for t = offset .. offset+T-1
    offset: int
    compromised: SensorSet
    epsilon: float = 0.0
    zeta: Optional[np.ndarray] = None       # generator state per step, same indexing
    injections: list = field(default_factory=list)  # (t, state-space vector)
    notes: str = ""

    @property
    def horizon(self) -> int:
        return self.entries.shape[0]

    def at(self, t) -> np.ndarray:
        """The injection at step t, or at each step of an integer array t as
        rows; zero outside the plan."""
        k = np.asarray(t) - self.offset
        inside = (k >= 0) & (k < self.horizon)
        out = np.zeros(k.shape + self.entries.shape[1:])
        out[inside] = self.entries[k[inside]]
        return out

    def as_callable(self):
        return self.at

    def to_csv(self) -> str:
        p = self.entries.shape[1]
        return _csv_text(["t"] + [f"a_{i+1}" for i in range(p)],
                         [self.offset + np.arange(self.horizon), *self.entries.T])

    @classmethod
    def from_csv(cls, text: str, compromised: SensorSet) -> "AttackPlan":
        """Read to_csv's format.  A row whose width differs from the header's,
        a time that is not an integer or repeats, or an entry that is not a
        number raises ConfigError naming the line."""
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if not header or header[0] != "t":
            raise ConfigError("attack CSV must start with header t,a_1..a_p")
        p = len(header) - 1
        rows: dict = {}
        for r in reader:
            if not r:
                continue
            where = f"attack CSV line {reader.line_num}"
            if len(r) != p + 1:
                raise ConfigError(f"{where} has {len(r)} fields, the header {p + 1}")
            try:
                t, vals = int(r[0]), [float(v) for v in r[1:]]
            except ValueError:
                raise ConfigError(f"{where}: need an integer time and numbers, "
                                  f"got {','.join(r)}") from None
            if t in rows:
                raise ConfigError(f"{where} repeats the time t={t}")
            rows[t] = vals
        t0 = min(rows, default=0)
        entries = np.zeros((max(rows, default=t0 - 1) - t0 + 1, p))
        for t, v in rows.items():
            entries[t - t0] = v
        return cls(entries, t0, compromised)


# -- sustained attacks --------------------------------------------------------

class _ChainBasis:
    """Real coordinates for propagation along an unstable witness.

    Real chain: V columns [v_1 .. v_q], J upper bidiagonal with (A - lambda) v_{j+1} = v_j.
    Complex pair: V is the invariant 2-plane, J the scaled rotation block.
    """

    def __init__(self, model: SystemModel, compromised: SensorSet):
        rec = _record(model, compromised)
        if rec.chain is None:
            raise NotPerfectlyAttackable(
                "no unstable eigenvector inside the clean sensors' null space")
        lam, chain = rec.chain
        if isinstance(lam, complex):
            self.V = chain[0]
            self.J = np.array([[lam.real, lam.imag], [-lam.imag, lam.real]])
            self.growing = abs(lam) > 1.0 + 1e-12
        else:
            self.V = np.stack(chain, axis=1)
            self.J = np.eye(len(chain)) * lam
            for j in range(1, len(chain)):
                self.J[j - 1, j] = 1.0
            self.growing = (abs(lam) > 1.0 + 1e-12) or len(chain) >= 2
        self.q = self.V.shape[1]
        # the whole propagated trajectory must stay invisible to clean sensors
        O_clean = rec.O_c
        if O_clean.shape[0]:
            leak = float(np.linalg.norm(O_clean @ self.V, 2))
            if leak > 1e-6 * max(1.0, float(np.linalg.norm(O_clean, 2))):
                raise NotPerfectlyAttackable(
                    "witness chain leaks onto clean sensors; cannot propagate")

    def tail(self) -> np.ndarray:
        return np.eye(self.q)[-1]


def _max_scale(base: np.ndarray, add: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Per row, the largest c >= 0 with ||base + c add|| <= allowed (inf where
    add ~ 0).  The dot products are batched (1, p) @ (p, 1) matmuls, which give
    every row the bits of its own scalar x @ y; einsum need not."""
    def dot(X, Y):
        return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]
    a, b = dot(add, add), dot(base, add)
    disc = b * b - a * (dot(base, base) - allowed * allowed)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = (-b + np.sqrt(disc)) / a
    return np.where(a < 1e-300, np.inf, np.where(disc <= 0, 0.0, np.where(root > 0, root, 0.0)))


class _SlackLedger:
    """Committed per-(window, slot) noise deviations against per-slot budgets.

    An injection v at time tau deviates the slots (s, k) with s < tau <= s + k
    by C A^{s+k-tau} v.  The methods take arrays of times and (m, n) vectors
    and give the bits of one injection at a time in time order (a slot sums
    its deviations in time order from 0.0); greedy sizes units whose slots
    do not overlap in one batch, so a VTF ramp is a single batch.
    """

    def __init__(self, model: SystemModel, w_eff: np.ndarray):
        self.C, self.powers, self.N = model.C, model.powers(), model.N
        self.S = w_eff.shape[0]
        # noise + committed deviations, one row per slot s * N + k
        self.base = w_eff.reshape(-1, w_eff.shape[2]).copy()
        norms, dw = np.linalg.norm(w_eff, axis=2), model.delta_w
        # consume at most SLACK_SHARE of each slot's realized slack
        self.allowed = np.minimum(norms + SLACK_SHARE * np.maximum(dw - norms, 0.0), dw).ravel()

    def _deviations(self, taus: np.ndarray, V: np.ndarray):
        """Injection rows, slot rows and deviations C A^j v of every slot reached,
        lag j = s + k - tau from N - 2 down to 0, so a slot meets them in time order."""
        out = []
        for j in range(self.N - 2, -1, -1):
            s = taus[:, None] + j - np.arange(j + 1, self.N)   # slot k = j + 1 + column
            rows, col = np.nonzero((s >= 0) & (s < self.S))
            out.append((rows, s[rows, col] * self.N + col + j + 1,
                        matvec_rows(self.C, matvec_rows(self.powers[j], V))[rows]))
        return (np.concatenate(x) for x in zip(*out))

    def scale(self, taus: np.ndarray, V: np.ndarray, unit: np.ndarray) -> np.ndarray:
        """Largest scale c >= 0 each unit can share (0 where nothing bounds
        it); unit[i] = 0, 1, ... is injection i's unit, units reach disjoint slots."""
        rows, slot, D = self._deviations(taus, V)
        lo, hi = slot.min(), slot.max() + 1     # slot rows lo..hi-1; unreached ones add 0
        add = np.zeros((hi - lo, D.shape[1]))
        np.add.at(add, slot - lo, D)
        fit = _max_scale(self.base[lo:hi], add, self.allowed[lo:hi])
        c = np.full(unit[-1] + 1, np.inf)
        np.minimum.at(c, unit[rows], fit[slot - lo])
        return np.where(np.isfinite(c), c, 0.0)

    def commit(self, taus: np.ndarray, V: np.ndarray) -> None:
        _, slot, D = self._deviations(taus, V)
        np.add.at(self.base, slot, 0.0 + D)

    def greedy(self, taus: np.ndarray, V: np.ndarray, unit: np.ndarray,
               cap: float) -> np.ndarray:
        """Scale every unit in turn by the largest c <= cap the slack left by
        the units before it allows, commit it, and return each injection's
        scale.  Units whose slots do not overlap are sized in one batch."""
        if self.N < 2 or not len(taus):     # no injection reaches a slot
            return np.zeros(len(taus))
        first = np.flatnonzero(np.diff(unit, prepend=-1))
        # an injection at tau reaches the slots of windows tau-N+1 .. tau-1, so a
        # unit starting N - 1 or more steps after the one before it joins its batch
        opens = first[np.append(True, taus[first[1:]] - taus[first[1:] - 1] < self.N - 1)]
        c = np.zeros(len(taus))
        for r0, r1 in zip(opens, np.append(opens[1:], len(taus))):
            u = unit[r0:r1] - unit[r0]
            c[r0:r1] = np.minimum(self.scale(taus[r0:r1], V[r0:r1], u), cap)[u]
            live = r0 + np.flatnonzero(c[r0:r1] > 0)
            self.commit(taus[live], c[live, None] * V[live])
        return c


def _reset_times(policy: Optional[AuthPolicy], compromised: SensorSet,
                 start: int, t_end: int) -> list[int]:
    """Authentication times in start..t_end-1 that reach a compromised sensor."""
    if policy is None:
        return []
    hit = policy.mask(t_end)[start:, list(compromised.indices0)].any(axis=1)
    return (start + np.flatnonzero(hit)).tolist()


def sustained_attack(model: SystemModel, compromised: SensorSet, *, detector: str = "II",
                     horizon: int, noise: Optional[NoiseSpec] = None,
                     policy: Optional[AuthPolicy] = None, start: Optional[int] = None,
                     epsilon: Optional[float] = None, period: int = 1) -> AttackPlan:
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
    bounded, as the policy analysis predicts.  A horizon or period below 1, or
    an epsilon that is not a finite number >= 0, raises ConfigError.
    """
    det = detector_name(detector)
    model.check_sensor_sets(compromised=compromised,
                            policy=None if policy is None else policy.sensors)
    horizon = as_int(horizon, "attack horizon")
    if horizon < 1:
        raise ConfigError(f"attack horizon must be >= 1, got {horizon}")
    period = as_int(period, "attack period")
    if period < 1:
        raise ConfigError(f"attack period must be >= 1, got {period}")
    _check_epsilon(epsilon)
    N = model.N
    t0 = (N - 1) if start is None else as_int(start, "attack start")
    if t0 < N - 1:
        raise ConfigError(f"attack start must leave a complete ramp window (>= {N - 1})")
    T_meas = horizon + N - 1
    if t0 >= T_meas:
        raise ConfigError("attack start beyond plan horizon")

    verdict = (pa_over_time_id2 if det == "II" else pa_over_time_id1)(model, compromised)
    if not verdict:
        raise NotPerfectlyAttackable(verdict.notes)
    # ID_I's verdict on a rank-deficient F: the attack propagates through null(F)
    null_F = _record(model, compromised).null_F
    if det == "I" and null_F is not None and not _reset_times(policy, compromised, 0, T_meas):
        eta = 100.0 if epsilon is None else float(epsilon)
        return _cold_start_plan(model, compromised, horizon, eta, t0, null_F)
    if noise is None:
        raise ConfigError("ramped synthesis needs the scenario noise stream")
    return _ramped_plan(model, compromised, horizon, noise, policy, t0, period, epsilon)


def _check_epsilon(epsilon) -> None:
    """ConfigError unless epsilon is None or a finite number >= 0."""
    try:
        if epsilon is None or 0 <= float(epsilon) < np.inf:
            return
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"attack epsilon must be >= 0 and a finite number, got {epsilon!r}")


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
    # zeta is zero before the first nonzero injection; starting one step
    # early hands that injection the same A @ 0 as a loop from t = 0
    active = np.flatnonzero(inj.any(axis=1))
    start = max(int(active[0]) - 1, 0) if active.size else len(inj)
    for t, row in enumerate(inj[start:], start):
        zeta = zeta + row
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


def _cold_start_plan(model: SystemModel, compromised: SensorSet, horizon: int,
                     eta: float, t0: int, z: np.ndarray) -> AttackPlan:
    """The cold start along z, a null vector of F(S, N) of any norm."""
    T_meas = horizon + model.N - 1
    # a stable A shrinks the propagated state; a growing null-space drive
    # keeps the error above any bound eventually
    stable = not _record(model, compromised).unstable
    gain = 0.05 * max(1.0, eta) if stable else 0.0
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
    return AttackPlan(entries, 0, compromised, epsilon=eta, zeta=zeta_hist,
                      injections=injections,
                      notes=f"cold start through null(F), eta={eta:g}, drive gain={gain:g}")


def _ramped_plan(model: SystemModel, compromised: SensorSet, horizon: int,
                 noise: NoiseSpec, policy: Optional[AuthPolicy], t0: int, period: int,
                 eps_cap: Optional[float]) -> AttackPlan:
    T_meas = horizon + model.N - 1
    basis = _ChainBasis(model, compromised)
    if not basis.growing:
        raise NotPerfectlyAttackable(
            "witness eigenvalue on the unit circle without a usable chain: "
            "the propagated attack stays bounded")
    tail_dir = basis.V @ basis.tail()
    resets = _reset_times(policy, compromised, t0, T_meas)
    cap = np.inf
    if not resets:
        # free-running growth: every injection is a unit of its own
        taus = np.arange(t0, T_meas, period)
        coef, unit = np.ones(len(taus)), np.arange(len(taus))
        if eps_cap is not None:
            cap = eps_cap / max(1e-300, float(np.linalg.norm(model.O_full() @ tail_dir)))
    else:
        # sawtooth: the injections between two enforcement times form a unit
        bounds = [t0] + resets + [T_meas]
        seg_taus, shapes, patterns = [np.zeros(0, dtype=int)], [np.zeros(0)], {}
        for seg in range(len(bounds) - 1):
            lo, hi = bounds[seg] + (seg > 0), bounds[seg + 1]   # hi: enforcement or plan end
            offsets = tuple(range(hi - lo, 0, -1))
            # a pattern depends on the offsets hi - tau alone: segments share it
            key = offsets, seg == len(bounds) - 2
            if key not in patterns:
                patterns[key] = _sawtooth_pattern(basis, *key)
            if patterns[key] is not None:
                seg_taus.append(hi - np.array(offsets))
                shapes.append(patterns[key])
        taus, coef = np.concatenate(seg_taus), np.concatenate(shapes)
        unit = np.repeat(np.arange(len(seg_taus) - 1), [len(t) for t in seg_taus[1:]])
    V = coef[:, None] * tail_dir
    # the ledger, and the noise it holds, go as soon as the units are sized
    c = _SlackLedger(model, effective_window_noise(
        model, *noise.draw(T_meas, model.n, model.p), horizon)).greedy(taus, V, unit, cap)
    if not np.any(c > 0):
        raise NotPerfectlyAttackable("no admissible injection found (no noise slack)")
    taus, vecs = taus[c > 0], c[c > 0, None] * V[c > 0]
    inj = np.zeros((T_meas, model.n))
    inj[taus] += vecs
    entries, zeta_hist = _roll_forward(model, compromised, inj, resets, 1e-9, 1e-9, "ramped")
    return AttackPlan(entries, 0, compromised, zeta=zeta_hist,
                      epsilon=float(np.linalg.norm(model.O_full() @ vecs[0])),
                      injections=list(zip(taus.tolist(), vecs)),
                      notes=f"noise-slack ramp, {len(taus)} injections, resets={len(resets)}")


def _sawtooth_pattern(basis: _ChainBasis, offsets: tuple, final: bool) -> Optional[np.ndarray]:
    """Coefficients at the times hi - offsets: build up, tear down and, but in
    the final segment, return the state to zero at hi; None if there is none."""
    if len(offsets) <= basis.q:
        return None
    shape = np.where(np.arange(len(offsets)) < len(offsets) // 2, 1.0, -1.0)
    if final:
        return shape
    # constraint: sum_tau J^{hi - tau} e_q c_tau = 0 (exact zero at hi)
    M = np.stack([np.linalg.matrix_power(basis.J, o) @ basis.tail() for o in offsets], axis=1)
    shape = shape - np.linalg.pinv(M) @ (M @ shape)
    return None if np.linalg.norm(shape) < 1e-12 else shape
