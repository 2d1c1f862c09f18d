"""Closed-loop simulation of the bounded-noise plant with sensor attacks,
sliding-window decoding, intrusion detection and authentication enforcement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .decoder import DecodeResult, DecodeStats, WindowDecoder, detector_threshold
from .detectors import id1, innovation_check
from .model import ConfigError, SensorSet, SystemModel, as_int, matvec_rows

__all__ = [
    "NoiseSpec",
    "NoiseBoundViolation",
    "PrecisionLoss",
    "AuthPolicy",
    "SimTrace",
    "apply_attack",
    "run_closed_loop",
]


@dataclass(frozen=True)
class NoiseSpec:
    """Deterministic bounded noise streams for the process and measurement channels.

    uniform_elementwise draws every component from U(lo, hi); ball draws
    uniformly from the 2-norm balls of the given radii; zero is noiseless.
    The same seed always reproduces the same streams.
    """

    kind: str = "uniform_elementwise"
    lo: float = -0.05
    hi: float = 0.05
    radius_p: float = 0.0
    radius_m: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform_elementwise", "ball", "zero"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if not np.isfinite([self.lo, self.hi, self.radius_p, self.radius_m]).all():
            raise ConfigError("noise lo, hi, radius_p and radius_m must be finite")
        if min(self.radius_p, self.radius_m) < 0:
            raise ConfigError("noise radii must be >= 0")
        if self.kind == "uniform_elementwise" and self.lo > self.hi:
            raise ConfigError("uniform noise needs lo <= hi")
        if as_int(self.seed, "noise seed") < 0:
            raise ConfigError(f"noise seed must be >= 0, got {self.seed}")

    def delta_vp(self, n: int) -> float:
        return self._channel_bound(n, self.radius_p)

    def delta_vm(self, p: int) -> float:
        return self._channel_bound(p, self.radius_m)

    def _channel_bound(self, dim: int, radius: float) -> float:
        """2-norm bound on one channel's per-step draw of dimension dim."""
        if self.kind == "uniform_elementwise":
            return float(np.sqrt(dim) * max(abs(self.lo), abs(self.hi)))
        return float(radius) if self.kind == "ball" else 0.0

    def draw(self, T: int, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
        """(v_P, v_M) arrays of shape (T, n) and (T, p); draw order is fixed
        (measurement first) so traces replay bit-identically."""
        if self.kind == "zero":
            return np.zeros((T, n)), np.zeros((T, p))
        rng = np.random.default_rng(self.seed)
        if self.kind == "uniform_elementwise":
            vM = rng.uniform(self.lo, self.hi, size=(T, p))
            vP = rng.uniform(self.lo, self.hi, size=(T, n))
            return vP, vM
        vM = _ball_draws(rng, T, p, self.radius_m)
        vP = _ball_draws(rng, T, n, self.radius_p)
        return vP, vM


def _ball_draws(rng, T: int, dim: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((T, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = radius * rng.uniform(0.0, 1.0, size=(T, 1)) ** (1.0 / dim)
    return g / norms * r


@dataclass(frozen=True)
class AuthPolicy:
    """Authenticate every sensor of `sensors`, all at once, at each t with
    t % period == phase (phase taken mod period); the others never."""

    sensors: SensorSet
    period: int
    phase: int = 0

    def __post_init__(self):
        period = as_int(self.period, "authentication period")
        if period < 1:
            raise ConfigError("authentication period must be >= 1")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "phase", as_int(self.phase, "authentication phase") % period)

    @classmethod
    def periodic(cls, sensors, period: int, p: int, phase: int = 0) -> "AuthPolicy":
        return cls(SensorSet.of(sensors, p), period, phase)

    def auth_set(self, t: int) -> SensorSet:
        return self.sensors if t % self.period == self.phase else SensorSet.empty(self.sensors.p)

    def mask(self, T: int) -> np.ndarray:
        """(T, p) bool: entry [t, i-1] is set when sensor i is authenticated at t."""
        out = np.zeros((T, self.sensors.p), dtype=bool)
        out[self.phase::self.period, list(self.sensors.indices0)] = True
        return out


class NoiseBoundViolation(ConfigError):
    """Realized noise above the model's declared delta_w: the decoder's
    guarantees, the attack-free error bound among them, do not hold."""

    def __init__(self, what: str, delta_w: float, realized: float):
        self.delta_w, self.realized = delta_w, realized
        super().__init__(f"{what}: declared delta_w = {delta_w:.6g}, largest realized "
                         f"per-slot window-noise norm = {realized:.6g}")


class PrecisionLoss(ConfigError):
    """Float rounding of the outputs swamps delta_w, so the decodes lose their meaning."""


def apply_attack(a: np.ndarray, compromised: SensorSet,
                 auth: np.ndarray) -> tuple[np.ndarray, list]:
    """The stacked injections a (T, p) with authentication enforced: a copy
    with each nonzero entry on a sensor authenticated at that step (auth,
    (T, p) bool) set to zero, and those violations as (t, sensors) pairs.  The
    attacker knows the authentication times, so a violation is a synthesizer
    bug, flagged, not silently clipped.  A nonzero injection outside the
    compromised set raises ConfigError."""
    a = np.array(a, dtype=float)
    outside = np.ones(a.shape[1], dtype=bool)
    outside[list(compromised.indices0)] = False
    rows = np.flatnonzero((a[:, outside] != 0.0).any(axis=1))
    if rows.size:
        bad = [int(i) + 1 for i in np.flatnonzero((a[rows[0]] != 0.0) & outside)]
        raise ConfigError(f"attack support {bad} outside compromised set {compromised}")
    hit = auth & (a != 0.0)
    a[hit] = 0.0
    return a, [(int(t), tuple(int(i) + 1 for i in np.flatnonzero(hit[t])))
               for t in np.flatnonzero(hit.any(axis=1))]


@dataclass
class SimTrace:
    """Per-step trace of a closed-loop run (estimates timestamped at window start)."""

    model: SystemModel
    t: np.ndarray
    x: np.ndarray            # (T, n) true states
    y: np.ndarray            # (T, p) pre-attack outputs
    y_delivered: np.ndarray  # (T, p)
    attack: np.ndarray       # (T, p) applied attack
    u: np.ndarray            # (T, m)
    x_hat: np.ndarray        # (T, n) window-start estimates
    err_norm: np.ndarray     # (T,)
    alarm_id1: np.ndarray    # (T,) bool
    alarm_id2: np.ndarray    # (T,) bool
    innovation: np.ndarray   # (T,)
    auth_mask: np.ndarray    # (T,) int bitmask, bit i-1 set when sensor i authenticated
    violations: list = field(default_factory=list)
    supports: list = field(default_factory=list)
    indeterminate: int = 0   # windows with an indeterminate feasibility verdict
    threshold_d: float = 0.0
    supports_tested: int = 0
    oracle_iterations: int = 0

    @property
    def horizon(self) -> int:
        return len(self.t)

    def max_error(self) -> float:
        return float(np.max(self.err_norm))

    def alarm_counts(self) -> tuple[int, int]:
        return int(np.sum(self.alarm_id1)), int(np.sum(self.alarm_id2))

    def to_csv(self) -> str:
        n, p = self.model.n, self.model.p
        header = (["t"] + [f"x_{j+1}" for j in range(n)]
                  + [f"xhat_{j+1}" for j in range(n)] + ["err_norm"]
                  + [f"a_{j+1}" for j in range(p)]
                  + ["alarm_id1", "alarm_id2", "auth_flags"])
        return _csv_text(header, [self.t, *self.x.T, *self.x_hat.T, self.err_norm,
                                  *self.attack.T, self.alarm_id1, self.alarm_id2,
                                  self.auth_mask])

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv())


def _csv_text(header: list[str], columns: list[np.ndarray]) -> str:
    """CSV text: the header, then one row per entry of the equal-length
    columns.  Integer and bool columns are written as integers at any size,
    every other one as %.12g."""
    cells = [[str(int(v)) for v in c.tolist()] if c.dtype.kind in "biu"
             else [f"{v:.12g}" for v in c.tolist()] for c in map(np.asarray, columns)]
    return "".join(",".join(row) + "\n" for row in [header, *zip(*cells)])


def _slot_kernels(model: SystemModel) -> np.ndarray:
    """(N, p, n): kernel j is C A^j, the power-j rows of O_full."""
    return model.O_full().reshape(model.p, model.N, model.n).swapaxes(0, 1)


def effective_window_noise(model: SystemModel, vP: np.ndarray, vM: np.ndarray,
                           n_windows: int) -> np.ndarray:
    """w_eff[s, k] = measurement noise at window slot k as the decoder sees it:
    vM plus the process noise that the kernels C A^j carry into the slot."""
    T = n_windows + model.N - 1
    w = _windows(vM[:T], -vP[:T], _slot_kernels(model))
    return w.reshape(n_windows, model.p, model.N).swapaxes(1, 2)


def _windows(y_del: np.ndarray, u: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Every sensor-major window of the delivered rows y_del (T, p), shape
    (T - N + 1, p*N), with the forced response of the inputs u (from the same
    first step) through kernels[j] = C A^j B, (N, p, m), subtracted per slot
    so the windows look autonomous."""
    N = len(kernels)
    W = len(y_del) - N + 1
    Y = np.empty((W, y_del.shape[1], N))
    for k in range(N):
        eff = 0.0
        for j in range(k):
            eff = eff + matvec_rows(kernels[k - 1 - j], u[j:j + W])
        Y[:, :, k] = y_del[k:k + W] - eff
    return Y.reshape(W, -1)


def _gain_matrix(model: SystemModel, gain) -> np.ndarray:
    """gain as a finite m x n float matrix, zeros for None; ConfigError otherwise."""
    K = np.zeros((model.m, model.n)) if gain is None else np.atleast_2d(np.asarray(gain, float))
    if K.shape != (model.m, model.n) or not np.isfinite(K).all():
        raise ConfigError(f"controller gain must be a finite {model.m}x{model.n} matrix")
    return K


def _shaped(a, shape: tuple, what: str) -> np.ndarray:
    """a as a new finite float array of the given shape; ConfigError otherwise."""
    try:
        out = np.array(a, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows or entries that are not numbers
        raise ConfigError(f"{what} must be a float array of shape {shape}: {exc}") from exc
    if out.shape != shape:
        raise ConfigError(f"{what} must be a float array of shape {shape}, got {out.shape}")
    bad = np.argwhere(~np.isfinite(out))
    if len(bad):
        raise ConfigError(f"{what} has a non-finite entry"
                          + (f" at step {bad[0][0]}" if out.ndim == 2 else ""))
    return out


def run_closed_loop(model: SystemModel,
                    horizon: int,
                    noise: NoiseSpec,
                    compromised: Optional[SensorSet] = None,
                    attack: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                    policy: Optional[AuthPolicy] = None,
                    controller_gain: Optional[np.ndarray] = None,
                    reference: Optional[Callable[[np.ndarray], tuple]] = None,
                    x0: Optional[np.ndarray] = None) -> SimTrace:
    """Simulate `horizon` decoded steps of the closed loop.

    The plant runs horizon + N - 1 measurement steps so that every t in
    0..horizon-1 anchors a complete window; the estimate x_hat(t) is decoded
    from the delivered window y(t..t+N-1) after subtracting the known forced
    response of the inputs.  Control uses the freshest complete window
    (N-1 steps old) propagated forward with the known inputs; the warm-up
    steps before the first complete window apply feedforward only.

    The run has three stages: generate (plant, attack, authentication),
    decode, detect.  With a nonzero controller gain each window is decoded
    inside the generate loop, because the next input needs its estimate: it
    goes through WindowDecoder.fast_path, and through decode only when the
    fast path rejects it.  Otherwise the inputs cannot depend on the
    estimates, and every window is decoded afterwards in one
    WindowDecoder.decode_batch call.

    attack and reference are each called once, on arange(T) with
    T = horizon + N - 1: attack returns the requested injections as a (T, p)
    array (AttackPlan.at does), reference x_ref and the feedforward u_ff as
    (T, n) and (T, m) arrays (see config.make_reference); other shapes raise
    ConfigError.  apply_attack enforces authentication on the whole attack at
    once: a nonzero entry on a sensor authenticated at t is zeroed before
    delivery and recorded as (t, sensors) in SimTrace.violations, and a
    nonzero entry outside the compromised set raises ConfigError.
    Raises NoiseBoundViolation when the drawn noise leaves the model's
    declared per-slot window-noise bound delta_w, or when an attack-free run breaks
    its error bound; PrecisionLoss instead when there eps * max ||y_t|| >= delta_w / 100.
    """
    horizon = as_int(horizon, "horizon")
    if horizon < 1:
        raise ConfigError("horizon must be >= 1")
    model.check_sensor_sets(compromised=compromised,
                            policy=None if policy is None else policy.sensors)
    N, n, p, m = model.N, model.n, model.p, model.m
    T_meas = horizon + N - 1
    comp = compromised if compromised is not None else SensorSet.empty(p)
    K_gain = _gain_matrix(model, controller_gain)
    feedback = bool(K_gain.any())

    vP, vM = noise.draw(T_meas, n, p)
    # the decoder's guarantees assume every window slot's noise inside delta_w
    w_max = float(np.max(np.linalg.norm(effective_window_noise(model, vP, vM, horizon),
                                        axis=2)))
    if w_max > model.delta_w + 1e-12:
        raise NoiseBoundViolation("window noise exceeds its bound (set delta_w to \"auto\" "
                                  "or shrink the noise)", model.delta_w, w_max)

    decoder = WindowDecoder(model)
    frk = _slot_kernels(model) @ model.B
    powN1 = model.powers()[N - 1]
    steer = [model.powers()[N - 2 - j] @ model.B for j in range(N - 1)]  # A^{N-2-j} B

    # attack and authentication: plans and schedules are fixed in advance, so
    # they are enforced over every step at once
    auth = np.zeros((T_meas, p), dtype=bool) if policy is None else policy.mask(T_meas)
    requested = np.zeros((T_meas, p)) if attack is None else _shaped(
        attack(np.arange(T_meas)), (T_meas, p), "attack(t) on the array of steps t")
    a_applied, violations = apply_attack(requested, comp, auth)

    x = np.zeros((T_meas + 1, n))
    if x0 is not None:
        x[0] = _shaped(x0, (n,), "initial state x0")
    u_hist = np.zeros((T_meas, m))
    x_ref = np.zeros((T_meas, n))
    if reference is not None:
        # feedforward; with feedback, corrected from the first complete window on
        x_ref, u_ff = reference(np.arange(T_meas))
        x_ref = _shaped(x_ref, (T_meas, n), "reference x_ref")
        u_hist = _shaped(u_ff, (T_meas, m), "reference u_ff")
    drive = matvec_rows(model.B, u_hist)
    x_hat = np.zeros((horizon, n))

    # ID_I and the decoder counters of the windows decoded one at a time; every
    # other window was accepted on the empty support after one support test
    supports = [SensorSet.empty(p)] * horizon
    al1 = np.zeros(horizon, dtype=bool)
    totals = DecodeStats(supports_tested=horizon)

    def tally(s: int, res: DecodeResult) -> None:
        supports[s], al1[s] = res.support, id1(res)
        totals.supports_tested += res.stats.supports_tested - 1
        totals.oracle_iterations += res.stats.oracle_iterations
        totals.indeterminate += res.stats.indeterminate > 0  # windows, not verdicts

    # plant (and, with feedback, decode and control) step by step
    y_del = np.empty((T_meas, p))
    xt = x[0]
    for t in range(T_meas):
        s = t - N + 1  # anchor of the newest complete window
        if feedback:
            y_del[t] = model.C @ xt + vM[t] + a_applied[t]
        if feedback and s >= 0:
            Y = _windows(y_del[s:t + 1], u_hist[s:t + 1], frk)
            X, inside = decoder.fast_path(Y)
            if not inside[0]:
                res = decoder.decode(Y[0])
                tally(s, res)
                X[0] = res.x_hat
            x_hat[s] = X[0]
            # x(t) = A^{N-1} x(s) + sum_{j<N-1} A^{N-2-j} B u(s+j) (+ noise)
            x_now = powN1 @ x_hat[s]
            for j in range(N - 1):
                x_now += steer[j] @ u_hist[s + j]
            u_hist[t] = u_hist[t] - K_gain @ (x_now - x_ref[t])
            drive[t] = model.B @ u_hist[t]
        xt = x[t + 1] = model.A @ xt + drive[t] + vP[t]
    # the same bits as the rows the feedback branch built
    y = matvec_rows(model.C, x[:T_meas]) + vM
    y_del = y + a_applied

    # decode: without feedback, every window at once
    if not feedback:
        x_hat, fallback = decoder.decode_batch(_windows(y_del, u_hist, frk))
        for s, res in fallback.items():
            tally(s, res)

    # detect: ID_II is ID_I OR the innovation check of consecutive estimates,
    # with the known input applied between their anchors compensated; the
    # first window has no predecessor and passes it vacuously.  Then the
    # attack-free error bound
    d_thr = detector_threshold(model)
    innov = np.zeros(horizon)
    jump = np.zeros(horizon, dtype=bool)
    innov[1:], jump[1:] = innovation_check(model, x_hat[1:], x_hat[:-1], d_thr,
                                           u_hist[:horizon - 1])
    err = np.linalg.norm(x_hat - x[:horizon], axis=1)
    # attack-free decodes obey ||err|| <= gain * 2 sqrt(N) delta_w = d / (1 + ||A||)
    err_bound = d_thr / (1.0 + float(np.linalg.norm(model.A, 2)))
    over = np.flatnonzero(err > err_bound + 1e-9)
    if attack is None and over.size:
        s = int(over[0])
        what = f"attack-free error {err[s]:.6g} at t={s} exceeds its bound {err_bound:.6g}"
        rounding = np.finfo(float).eps * np.linalg.norm(y[s:s + N], axis=1).max()
        if rounding >= model.delta_w / 100:
            x_max = np.linalg.norm(x[s:s + N], axis=1).max()
            raise PrecisionLoss(f"{what}: states reach norm {x_max:.3g}, and output "
                                f"rounding {rounding:.3g} swamps delta_w = {model.delta_w:.6g}")
        raise NoiseBoundViolation(what, model.delta_w, w_max)

    return SimTrace(model, np.arange(horizon), x[:horizon].copy(), y[:horizon].copy(),
                    y_del[:horizon].copy(), a_applied[:horizon].copy(),
                    u_hist[:horizon].copy(), x_hat, err, al1, al1 | jump, innov,
                    auth[:horizon] @ (1 << np.arange(p)), violations, supports,
                    totals.indeterminate, d_thr, totals.supports_tested,
                    totals.oracle_iterations)
