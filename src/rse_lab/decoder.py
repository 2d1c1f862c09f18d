"""l0-based resilient state estimation over a sliding measurement window.

The decoder searches candidate attacked-sensor supports by increasing
cardinality (lexicographic within a cardinality) and accepts the first support
whose complement admits a state plus a feasible noise explanation.  Omega is
the product of the N window slots' balls of radius delta_w: each slot's
cross-sensor noise vector has 2-norm <= delta_w.  Feasibility is decided by
dual-weighted least squares; each verdict carries a witness or a certificate.
A clean set's operators come from the model's record of the set, the one the
attackability verdicts read.

decode handles one window.  decode_batch takes a whole stack of windows: all
rows go through decode's first test, the empty support's least-squares start,
in one matrix product, and only the rows whose residual leaves Omega are
handed to decode, so every row gets decode's support and estimate.
NoiseFeasibleSet.inside is the one membership test for Omega.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .model import (ConfigError, SensorSet, SystemModel, _clean_record, matvec_rows,
                    singular_values)

__all__ = [
    "NoiseFeasibleSet",
    "DecodeResult",
    "FeasibilityResult",
    "DecodeStats",
    "WindowDecoder",
    "decode",
    "innovation_bound",
    "detector_threshold",
]

SUPPORT_CAP = 20  # support enumeration is O(2^p); larger sensor counts are refused
MAX_ROUNDS = 500  # feasibility rounds before a verdict is called indeterminate


@dataclass(frozen=True)
class NoiseFeasibleSet:
    """Feasible noise set Omega for the decoder: every window slot's
    cross-sensor noise vector has 2-norm <= delta_w."""

    eps_feas: ClassVar[float] = 1e-8  # decision tolerance on the min-max residual norm

    @staticmethod
    def slot_sums(R: np.ndarray, N: int) -> np.ndarray:
        """Per-slot sums of squares (..., N) of the sensor-major stacked
        residuals R (..., pN), for any leading shape."""
        return np.add.reduce((R * R).reshape(R.shape[:-1] + (-1, N)), axis=-2)

    def inside(self, R: np.ndarray, delta_w: float, N: int) -> np.ndarray:
        """Whether each sensor-major stacked residual, the last axis of R,
        lies in Omega: every slot norm is <= delta_w."""
        return np.sqrt(self.slot_sums(R, N).max(axis=-1)) <= delta_w


@dataclass
class DecodeStats:
    supports_tested: int = 0
    oracle_iterations: int = 0
    indeterminate: int = 0


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict on one clean set.  feasible: y_c = O_c x_hat + w_hat with w_hat
    in Omega, or, when gap > 0, a tie with w_hat gap <= eps_feas outside it.
    infeasible: weights (one per window slot, summing to 1) with weighted
    least-squares value g > (delta_w + eps_feas)^2, and gap = sqrt(g) - delta_w;
    after a quick reject (iterations == 0) weights are None and uniform weights
    certify, so gap = ||r_ls|| / sqrt(N) - delta_w.  indeterminate: no verdict
    in MAX_ROUNDS rounds."""

    status: str  # "feasible" | "infeasible" | "indeterminate"
    x_hat: Optional[np.ndarray] = None
    w_hat: Optional[np.ndarray] = None  # restricted to the clean rows
    gap: float = 0.0
    iterations: int = 0
    weights: Optional[np.ndarray] = None

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

    def attack_norm(self) -> float:
        return float(np.linalg.norm(self.a_hat))


@functools.lru_cache(maxsize=None)
def _clean_sets(p: int, size: int) -> tuple[SensorSet, ...]:
    """The clean sets of the supports of one size, in decode's search order:
    the complements of the lexicographic supports, which are the
    (p - size)-subsets in reverse lexicographic order."""
    subsets = list(itertools.combinations(range(1, p + 1), p - size))
    return tuple(SensorSet(c, p) for c in reversed(subsets))


class WindowDecoder:
    """Reusable decoder for one model; reads the model's per-set records."""

    def __init__(self, model: SystemModel):
        if model.p > SUPPORT_CAP:
            raise ConfigError(
                f"support enumeration is O(2^p); p={model.p} exceeds cap {SUPPORT_CAP}")
        self.model = model
        self.omega = NoiseFeasibleSet()
        self._full = _clean_record(model, SensorSet.all(model.p))

    # -- feasibility oracle ----------------------------------------------------
    def feasibility(self, clean: SensorSet, y_window: np.ndarray,
                    stats: Optional[DecodeStats] = None) -> FeasibilityResult:
        """Decide whether the clean rows admit y_c = O_c x + w with w in Omega.

        Attacked rows carry no constraint (their residual is absorbed by the
        attack estimate) and contribute no noise, which loses no generality.
        """
        rec = _clean_record(self.model, clean)
        if rec.O_c.shape[0] == 0:
            return FeasibilityResult("feasible", np.zeros(self.model.n),
                                     np.empty(0), 0.0, 0)
        y_c = y_window[rec.rows]
        N, dw, omega = self.model.N, self.model.delta_w, self.omega

        # quick reject: even the closest affine point cannot reach Omega, which
        # lives inside the sqrt(N) dw ball
        x_hat = rec.pinv @ y_c
        r = y_c - rec.O_c @ x_hat
        sqrt_N = np.sqrt(N)
        rho = float(np.linalg.norm(r))
        if rho > sqrt_N * dw + max(10 * omega.eps_feas, 1e-12):
            # uniform weights certify it: sqrt(g) = ||r_ls|| / sqrt(N)
            return FeasibilityResult("infeasible", None, None, rho / sqrt_N - dw, 0)

        # the deterministic (weighted) least-squares start; one inside Omega is
        # never quick-rejected, as ||r_ls|| <= ||r_G|| <= sqrt(N) dw
        x0 = rec.G @ y_c
        r0 = y_c - rec.O_c @ x0
        if omega.inside(r0, dw, N):
            return FeasibilityResult("feasible", x0, r0, 0.0, 0)

        # dual-weighted least squares (Lawson) from the least-squares point: for
        # slot weights lam in the simplex, g = min_x sum_k lam_k f_k(x) <=
        # (min_x max_k ||r_k(x)||)^2, so g above dw^2 certifies infeasibility
        lam = np.full(N, 1.0 / N)
        status, gap, eps = "indeterminate", 0.0, omega.eps_feas
        for it in range(1, MAX_ROUNDS + 1):
            f = omega.slot_sums(r, N)
            g, top = float(lam @ f), np.sqrt(f.max())
            if top <= dw:  # inside Omega, the rule of NoiseFeasibleSet.inside
                status = "feasible"
            elif g > (dw + eps) ** 2:
                status, gap = "infeasible", np.sqrt(g) - dw
            elif top <= dw + eps and top - np.sqrt(g) <= eps:
                # tie: the min-max norm lies in [sqrt(g), top], within eps of dw
                status, gap = "feasible", top - dw
            if status != "indeterminate" or it == MAX_ROUNDS:
                break
            lam = 0.5 * (lam + lam * f / g)  # averaged: plain lam f / g can oscillate
            sw = np.tile(np.sqrt(lam), len(r) // N)
            x_hat = np.linalg.lstsq(rec.O_c * sw[:, None], y_c * sw, rcond=None)[0]
            r = y_c - rec.O_c @ x_hat
        if stats is not None:
            stats.oracle_iterations += it
            stats.indeterminate += status == "indeterminate"
        if status != "feasible":
            x_hat = r = None
        return FeasibilityResult(status, x_hat, r, gap, it, lam if status == "infeasible" else None)

    # -- l0 decode ---------------------------------------------------------------
    def decode(self, y_window: np.ndarray) -> DecodeResult:
        y = np.asarray(y_window, dtype=float).ravel()
        if y.size != self.model.p * self.model.N:
            raise ConfigError(f"window must have p*N={self.model.p * self.model.N} entries")
        if not np.isfinite(y).all():  # Omega's norm tests read NaN as inside
            raise ConfigError("window has a NaN or infinite entry")
        stats, p = DecodeStats(), self.model.p
        # supports by size, so clean sets by falling size; the empty one always fits
        for clean in itertools.chain.from_iterable(_clean_sets(p, k) for k in range(p + 1)):
            stats.supports_tested += 1
            res = self.feasibility(clean, y, stats)
            if res.feasible:
                break
        support = clean.complement()
        w_hat = np.zeros_like(y)
        w_hat[_clean_record(self.model, clean).rows] = res.w_hat
        a_hat = np.zeros_like(y)
        if len(support):
            rows_a = support.block_rows(self.model.N)
            a_hat[rows_a] = y[rows_a] - (self.model.O_full() @ res.x_hat)[rows_a]
        return DecodeResult(res.x_hat, a_hat, w_hat, support, True, stats)

    def decode_batch(self, Y: np.ndarray) -> tuple[np.ndarray, dict[int, DecodeResult]]:
        """Decode every row of Y, shape (W, p*N), each a sensor-major window.

        Returns the (W, n) estimates and, by row index, the DecodeResult of
        every row decoded one at a time.  Each other row was accepted on the
        empty support after one support test and no projection iterations,
        with decode's fast-path estimate G y (see fast_path).
        """
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.model.p * self.model.N:
            raise ConfigError(f"windows must be rows of p*N={self.model.p * self.model.N} entries")
        bad = np.flatnonzero(~np.isfinite(Y).all(axis=1))
        if bad.size:
            raise ConfigError(f"window {bad[0]} has a NaN or infinite entry")
        X, inside = self.fast_path(Y)
        fallback = {int(w): self.decode(Y[w]) for w in np.flatnonzero(~inside)}
        for w, res in fallback.items():
            X[w] = res.x_hat
        return X, fallback

    def fast_path(self, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The empty support's estimates G y of the sensor-major windows Y
        (W, p*N), and the (W,) mask of the rows accepted there.  This is
        decode's first test, on the same bits: a row is accepted exactly when
        decode would give it the empty support and the same estimate."""
        # with every sensor clean the record's rows are 0..pN-1 in order
        X = matvec_rows(self._full.G, Y)
        R = Y - matvec_rows(self._full.O_c, X)
        return X, self.omega.inside(R, self.model.delta_w, self.model.N)


def decode(model: SystemModel, y_window: np.ndarray) -> DecodeResult:
    """One-shot minimum-support decode of a stacked window."""
    return WindowDecoder(model).decode(y_window)


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
    gain = float(np.linalg.norm(_clean_record(model, SensorSet.all(model.p)).G, 2))
    return base * max(1.0, gain * float(singular_values(model.O_full())[-1]))
