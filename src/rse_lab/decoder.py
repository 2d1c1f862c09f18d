"""l0-based resilient state estimation over a sliding measurement window.

The decoder searches candidate attacked-sensor supports by increasing
cardinality (lexicographic within a cardinality) and accepts the first support
whose complement admits a state plus a feasible noise explanation.  Noise
feasibility is a convex feasibility problem between the affine residual set
{y_clean - O_clean x} and the noise set Omega, decided by alternating
projections; two Omega geometries are supported (per-step ball, stacked ball).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import ConfigError, SensorSet, SystemModel, singular_values

__all__ = [
    "NoiseFeasibleSet",
    "DecodeResult",
    "FeasibilityResult",
    "DecodeStats",
    "WindowDecoder",
    "feasibility_oracle",
    "decode",
    "innovation_bound",
    "detector_threshold",
]

PER_STEP = "per_step_ball"
STACKED = "stacked_ball"
SUPPORT_CAP = 20  # support enumeration is O(2^p); larger sensor counts are refused


@dataclass(frozen=True)
class NoiseFeasibleSet:
    """Feasible noise set Omega for the decoder.

    per_step_ball: every window slot's cross-sensor noise vector has 2-norm
    <= delta_w.  stacked_ball: the whole stacked vector has 2-norm
    <= sqrt(N) * delta_w.
    """

    mode: str = PER_STEP
    eps_feas: float = 1e-8
    max_iter: int = 20000

    def __post_init__(self):
        if self.mode not in (PER_STEP, STACKED):
            raise ConfigError(f"unknown noise-set mode {self.mode!r}")

    def contains(self, r: np.ndarray, delta_w: float, N: int) -> bool:
        """Whether the sensor-major stacked residual r lies in Omega."""
        if self.mode == PER_STEP:
            for k in range(N):
                if np.linalg.norm(r[k::N]) > delta_w:
                    return False
            return True
        return np.linalg.norm(r) <= np.sqrt(N) * delta_w

    def project(self, r: np.ndarray, delta_w: float, N: int) -> np.ndarray:
        """Euclidean projection of the sensor-major stacked residual r onto Omega."""
        w = r.copy()
        if self.mode == PER_STEP:
            for k in range(N):
                blk = w[k::N]
                nb = np.linalg.norm(blk)
                if nb > delta_w:
                    w[k::N] = blk * (delta_w / nb) if nb > 0 else 0.0
            return w
        radius = np.sqrt(N) * delta_w
        nb = np.linalg.norm(w)
        if nb > radius:
            w *= radius / nb if nb > 0 else 0.0
        return w


@dataclass
class DecodeStats:
    supports_tested: int = 0
    oracle_iterations: int = 0
    indeterminate: int = 0


@dataclass(frozen=True)
class FeasibilityResult:
    status: str  # "feasible" | "infeasible" | "indeterminate"
    x_hat: Optional[np.ndarray] = None
    w_hat: Optional[np.ndarray] = None  # restricted to the clean rows
    gap: float = 0.0
    iterations: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


@dataclass(frozen=True)
class DecodeResult:
    """Estimator output: state, per-sensor attack blocks, noise, support."""

    x_hat: np.ndarray
    a_hat: np.ndarray
    w_hat: np.ndarray
    support: SensorSet
    feasible: bool
    stats: DecodeStats = field(default_factory=DecodeStats, compare=False)

    def error_against(self, true_state: np.ndarray) -> float:
        return float(np.linalg.norm(self.x_hat - np.asarray(true_state, dtype=float)))

    def attack_norm(self) -> float:
        return float(np.linalg.norm(self.a_hat))


class _SupportContext:
    """Cached linear operators for one candidate clean set."""

    __slots__ = ("rows", "O_c", "G", "n_clean", "N", "pinv")

    def __init__(self, model: SystemModel, clean: SensorSet):
        self.N = model.N
        self.rows = clean.block_rows(model.N)
        O = model.O_full()
        self.O_c = O[self.rows] if len(self.rows) else np.empty((0, model.n))
        self.n_clean = len(clean)
        if self.O_c.shape[0] == 0:
            self.G = np.zeros((model.n, 0))
            self.pinv = self.G
            return
        self.pinv = np.linalg.pinv(self.O_c)
        gram = model.noise_gram()
        G = None
        if gram is not None and len(clean) == model.p:
            # weighted (BLUE) recovery on the full window; guard conditioning
            try:
                Si = np.linalg.inv(gram)
                M = model.O_full().T @ Si
                G = np.linalg.solve(M @ model.O_full(), M)
            except np.linalg.LinAlgError:
                G = None
        self.G = self.pinv if G is None else G


class WindowDecoder:
    """Reusable decoder for one (model, Omega) pair; caches per-support operators."""

    def __init__(self, model: SystemModel, omega: Optional[NoiseFeasibleSet] = None):
        if model.p > SUPPORT_CAP:
            raise ConfigError(
                f"support enumeration is O(2^p); p={model.p} exceeds cap {SUPPORT_CAP}")
        self.model = model
        self.omega = omega if omega is not None else NoiseFeasibleSet()
        self._ctx: dict[tuple[int, ...], _SupportContext] = {}
        self._support_order = None

    def _context(self, clean: SensorSet) -> _SupportContext:
        key = clean.indices
        ctx = self._ctx.get(key)
        if ctx is None:
            ctx = _SupportContext(self.model, clean)
            self._ctx[key] = ctx
        return ctx

    # -- feasibility oracle ----------------------------------------------------
    def feasibility(self, clean: SensorSet, y_window: np.ndarray,
                    stats: Optional[DecodeStats] = None) -> FeasibilityResult:
        """Decide whether the clean rows admit y_c = O_c x + w with w in Omega.

        Attacked rows carry no constraint (their residual is absorbed by the
        attack estimate) and contribute no noise, which loses no generality.
        """
        ctx = self._context(clean)
        if ctx.O_c.shape[0] == 0:
            return FeasibilityResult("feasible", np.zeros(self.model.n),
                                     np.empty(0), 0.0, 0)
        y_c = y_window[ctx.rows]
        N, dw, omega = self.model.N, self.model.delta_w, self.omega

        # fast path: the deterministic (weighted) least-squares start
        x0 = ctx.G @ y_c
        r = y_c - ctx.O_c @ x0
        if omega.contains(r, dw, N):
            return FeasibilityResult("feasible", x0, r, 0.0, 0)

        # quick reject: even the closest affine point cannot reach Omega
        # (the per-step ball product also lives inside the sqrt(N) dw ball)
        r_ls = y_c - ctx.O_c @ (ctx.pinv @ y_c)
        max_norm = np.sqrt(N) * dw
        rho = float(np.linalg.norm(r_ls))
        if rho > max_norm + max(10 * omega.eps_feas, 1e-12):
            return FeasibilityResult("infeasible", None, None, rho - max_norm, 0)

        # alternating projections between the affine residual set and Omega
        x_hat = ctx.pinv @ y_c
        r = y_c - ctx.O_c @ x_hat
        gap_prev = np.inf
        it = 0
        for it in range(1, omega.max_iter + 1):
            w = omega.project(r, dw, N)
            gap = float(np.linalg.norm(r - w))
            if gap < omega.eps_feas:
                if stats is not None:
                    stats.oracle_iterations += it
                return FeasibilityResult("feasible", x_hat, w, gap, it)
            if gap_prev - gap < 1e-14 * gap:
                break  # stalled at the (positive) inter-set distance
            gap_prev = gap
            x_hat = ctx.pinv @ (y_c - w)
            r = y_c - ctx.O_c @ x_hat
        if stats is not None:
            stats.oracle_iterations += it
        w = omega.project(r, dw, N)
        gap = float(np.linalg.norm(r - w))
        if gap < omega.eps_feas:
            return FeasibilityResult("feasible", x_hat, w, gap, it)
        if gap < 10 * omega.eps_feas:
            # too close to the boundary to call either way
            if stats is not None:
                stats.indeterminate += 1
            return FeasibilityResult("indeterminate", None, None, gap, it)
        return FeasibilityResult("infeasible", None, None, gap, it)

    # -- l0 decode ---------------------------------------------------------------
    def _supports(self):
        if self._support_order is None:
            sensors = range(1, self.model.p + 1)
            self._support_order = [
                SensorSet.of(c, self.model.p)
                for size in range(self.model.p + 1)
                for c in itertools.combinations(sensors, size)
            ]
        return self._support_order

    def decode(self, y_window: np.ndarray) -> DecodeResult:
        y = np.asarray(y_window, dtype=float).ravel()
        if y.size != self.model.p * self.model.N:
            raise ConfigError(f"window must have p*N={self.model.p * self.model.N} entries")
        stats = DecodeStats()
        O = self.model.O_full()
        for support in self._supports():
            stats.supports_tested += 1
            clean = support.complement()
            res = self.feasibility(clean, y, stats)
            if not res.feasible:
                continue
            x_hat = res.x_hat
            w_hat = np.zeros_like(y)
            ctx = self._context(clean)
            if len(ctx.rows):
                w_hat[ctx.rows] = res.w_hat
            a_hat = np.zeros_like(y)
            if len(support):
                rows_a = support.block_rows(self.model.N)
                a_hat[rows_a] = y[rows_a] - (O @ x_hat)[rows_a]
            return DecodeResult(x_hat, a_hat, w_hat, support, True, stats)
        raise AssertionError("support = S is always feasible; unreachable")


def feasibility_oracle(model: SystemModel, clean: SensorSet, y_window: np.ndarray,
                       omega: Optional[NoiseFeasibleSet] = None) -> FeasibilityResult:
    """One-shot feasibility check for a candidate clean sensor set."""
    return WindowDecoder(model, omega).feasibility(clean, np.asarray(y_window, dtype=float).ravel())


def decode(model: SystemModel, y_window: np.ndarray,
           omega: Optional[NoiseFeasibleSet] = None) -> DecodeResult:
    """One-shot minimum-support decode of a stacked window."""
    return WindowDecoder(model, omega).decode(y_window)


def innovation_bound(model: SystemModel) -> float:
    """Attack-free innovation bound d = 2 sqrt(N) delta_w ||O^+|| (1 + ||A||).

    SystemModel guarantees that O has full column rank, so ||O^+|| is finite.
    """
    return (2.0 * np.sqrt(model.N) * model.delta_w * model.O_pinv_norm()
            * (1.0 + float(np.linalg.norm(model.A, 2))))


def detector_threshold(model: SystemModel) -> float:
    """Innovation threshold matched to the decoder's actual recovery gain.

    Identical to innovation_bound for the unweighted decoder; with a weighted
    recovery the gain norm can exceed ||O^+||, and the bound scales with it so
    the no-attack guarantee stays hard.
    """
    base = innovation_bound(model)
    gram = model.noise_gram()
    if gram is None:
        return base
    ctx = _SupportContext(model, SensorSet.all(model.p))
    gain = float(np.linalg.norm(ctx.G, 2))
    return base * max(1.0, gain * float(singular_values(model.O_full())[-1]))
