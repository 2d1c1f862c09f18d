"""Core system model, stacked observation matrices and eigenstructure utilities.

Layout convention used everywhere in this package: stacked window vectors and
stacked observation matrices are SENSOR-MAJOR.  A window of length N anchored
at time t is the pN vector

    [y_1(t), ..., y_1(t+N-1), y_2(t), ..., y_p(t+N-1)]

i.e. block i (of N rows) belongs to sensor i.  Time-major views are obtained
through explicit permutations; all rank/null-space statements are invariant
under the row permutation, so the choice only has to be consistent.
SystemModel.O_full() is the one window stack; the other stacks select its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "ConfigError",
    "SensorSet",
    "SystemModel",
    "RANK_TOL",
    "MARGIN_BAND",
    "STABILITY_MARGIN",
    "build_O",
    "build_overlap_stack",
    "classical_obs_stack",
    "rank_with_tol",
    "singular_values",
    "rank_margin",
    "null_basis",
    "unstable_eigenstructure",
    "unstable_chain",
    "suggest_delta_w",
]

RANK_TOL = 1e-9  # singular values above RANK_TOL times max(1, sigma_max) count toward rank
MARGIN_BAND = 10.0  # rank margins below MARGIN_BAND * RANK_TOL are borderline
STABILITY_MARGIN = 1e-9  # eigenvalues with |lambda| >= 1 - STABILITY_MARGIN count as unstable


class ConfigError(ValueError):
    """Raised when a model or scenario is dimensionally or logically invalid."""


@dataclass(frozen=True, order=True)
class SensorSet:
    """An ordered subset of the sensor index set {1, ..., p} (1-based)."""

    indices: tuple[int, ...]
    p: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if list(idx) != sorted(set(idx)):
            raise ConfigError(f"sensor indices must be strictly increasing, got {idx}")
        if idx and (idx[0] < 1 or idx[-1] > self.p):
            raise ConfigError(f"sensor indices {idx} out of range 1..{self.p}")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def of(cls, indices: Iterable[int], p: int) -> "SensorSet":
        return cls(tuple(sorted(set(int(i) for i in indices))), p)

    @classmethod
    def all(cls, p: int) -> "SensorSet":
        return cls(tuple(range(1, p + 1)), p)

    @classmethod
    def empty(cls, p: int) -> "SensorSet":
        return cls((), p)

    def complement(self) -> "SensorSet":
        inside = set(self.indices)
        return SensorSet(tuple(i for i in range(1, self.p + 1) if i not in inside), self.p)

    @property
    def indices0(self) -> tuple[int, ...]:
        """0-based indices for numpy row selection."""
        return tuple(i - 1 for i in self.indices)

    def block_rows(self, N: int) -> np.ndarray:
        """Row indices of this set's sensor blocks in a sensor-major pN stack."""
        if not self.indices:
            return np.empty(0, dtype=int)
        return np.concatenate([np.arange(i * N, (i + 1) * N) for i in self.indices0])

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.indices)) + "}"


def as_int(value, what: str) -> int:
    """value as an int; ConfigError unless it is an integral number."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc
    if out != value or isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return out


def _as_matrix(M, rows=None, cols=None, name="matrix") -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.isfinite(M).all():
        raise ConfigError(f"{name} has non-finite entries")
    if rows is not None and M.shape[0] != rows:
        raise ConfigError(f"{name} must have {rows} rows, got {M.shape[0]}")
    if cols is not None and M.shape[1] != cols:
        raise ConfigError(f"{name} must have {cols} columns, got {M.shape[1]}")
    return M


def matvec_rows(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ x for every row x of X (any leading shape).  Each row goes through
    the same matrix-vector product as M @ x alone, so the result has the same
    bits however many rows are stacked; X @ M.T need not."""
    return (M @ X[..., None])[..., 0]


def singular_values(M: np.ndarray) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        return np.empty(0)
    return np.linalg.svd(M, compute_uv=False)


def rank_with_tol(M: np.ndarray) -> int:
    """Numerical rank: number of singular values above the rank threshold."""
    return rank_margin(M)[0]


def _threshold(s: np.ndarray) -> float:
    """The rank threshold of descending singular values s: RANK_TOL times
    max(1, sigma_max), the guard keeping it meaningful for near-zero matrices."""
    return RANK_TOL * max(1.0, float(s[0]))


def rank_margin(M: np.ndarray) -> tuple[int, float]:
    """Numerical rank plus the normalized distance of the closest singular
    value to the rank threshold; inf when none is left.  Singular values below
    the threshold over MARGIN_BAND are exact zeros and set no margin.  A small
    margin flags a borderline rank verdict."""
    s = singular_values(M)
    if s.size == 0:
        return 0, float("inf")
    thresh = _threshold(s)
    near = s[s >= thresh / MARGIN_BAND]
    margin = np.min(np.abs(near - thresh), initial=np.inf) / max(1.0, float(s[0]))
    return int(np.sum(s > thresh)), float(margin)


def null_basis(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of M."""
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0 or M.shape[0] == 0:
        return np.eye(M.shape[1])
    _, s, Vh = np.linalg.svd(M)
    return Vh[int(np.sum(s > _threshold(s))):].conj().T


def suggest_delta_w(A: np.ndarray, C: np.ndarray, N: int, delta_vp: float, delta_vm: float) -> float:
    """Conservative per-step bound on the window-effective measurement noise.

    Looking N-1 steps ahead from the window anchor, process noise accumulates
    through C A^j, so ||w_eff(k)|| <= delta_vm + ||C|| sum_{j<k} ||A^j|| delta_vp.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    normC = float(np.linalg.norm(np.atleast_2d(np.asarray(C, dtype=float)), 2))
    acc = sum(float(np.linalg.norm(P, 2)) for P in _powers(A, N - 1))
    return float(delta_vm + normC * acc * delta_vp)


@dataclass(frozen=True)
class SystemModel:
    """Observable LTI plant with bounded window-effective noise.

    A: n x n state matrix, B: n x m input matrix (zero allowed), C: p x n
    output matrix, delta_w: per-time-step 2-norm bound on the effective
    measurement noise, N: window length.  delta_vp / delta_vm optionally
    record the raw channel bounds; when present they weight the decoder's
    state recovery (best linear unbiased selection inside the feasible set).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    delta_w: float
    N: int
    delta_vp: Optional[float] = None
    delta_vm: Optional[float] = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        A = _as_matrix(self.A, name="A")
        n = A.shape[0]
        if A.shape[1] != n:
            raise ConfigError(f"A must be square, got {A.shape}")
        C = _as_matrix(self.C, cols=n, name="C")
        B = np.zeros((n, 1)) if self.B is None else _as_matrix(self.B, rows=n, name="B")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "delta_w", float(self.delta_w))
        object.__setattr__(self, "N", as_int(self.N, "window length N"))
        if not (np.isfinite(self.delta_w) and self.delta_w >= 0):
            raise ConfigError(f"delta_w must be finite and nonnegative, got {self.delta_w}")
        if self.N < 1:
            raise ConfigError("window length N must be >= 1")
        # the full window stack must recover the state: rank n.  For N >= n this
        # is exactly (A, C) observability (Cayley-Hamilton); for N < n stricter.
        if rank_with_tol(self.O_full()) < n:
            raise ConfigError("(A, C) window stack is rank deficient at RANK_TOL")

    # -- basic dimensions ---------------------------------------------------
    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def check_sensor_sets(self, **sets: Optional[SensorSet]) -> None:
        """ConfigError unless every given sensor set (None skipped) is sized
        for this model's p sensors; the keyword names the set."""
        for what, s in sets.items():
            if s is not None and s.p != self.p:
                raise ConfigError(f"{what} {s} is sized for {s.p} sensors, "
                                  f"but the model has {self.p}")

    # -- cached stacked operators -------------------------------------------
    def O_full(self) -> np.ndarray:
        """The sensor-major window stack of every sensor, (p N, n)."""
        if "O" not in self._cache:
            self._cache["O"] = _stack_rows(self.A, self.C, self.N)
        return self._cache["O"]

    def O_pinv_norm(self) -> float:
        if "opn" not in self._cache:
            s = singular_values(self.O_full())
            self._cache["opn"] = float(1.0 / s[-1])
        return self._cache["opn"]

    def noise_gram(self) -> Optional[np.ndarray]:
        """Second-moment structure (up to scale) of the stacked noise Phi vP + vM,
        Phi's block ((i, k), m < k) being the O_full row C_i A^{k-1-m}: with
        channel variances delta^2 / dim, var_p Phi Phi^T + var_m I.  None when
        channel bounds were not declared (the decoder then uses the pseudoinverse)."""
        if self.delta_vp is None or self.delta_vm is None:
            return None
        if "gram" not in self._cache:
            p, N, n = self.p, self.N, self.n
            gram = np.eye(p * N)
            if self.delta_vp or self.delta_vm:
                O3, Phi = self.O_full().reshape(p, N, n), np.zeros((p, N, N - 1, n))
                for k in range(1, N):
                    Phi[:, k, :k] = O3[:, k - 1::-1]
                Phi = Phi.reshape(p * N, (N - 1) * n)
                gram = self.delta_vp ** 2 / n * (Phi @ Phi.T) + self.delta_vm ** 2 / p * gram
            self._cache["gram"] = gram
        return self._cache["gram"]

    def powers(self) -> list[np.ndarray]:
        """[I, A, ..., A^{N-1}]"""
        if "pow" not in self._cache:
            self._cache["pow"] = _powers(self.A, self.N)
        return self._cache["pow"]


def _powers(A: np.ndarray, k: int) -> list[np.ndarray]:
    """[I, A, ..., A^{k-1}], each power the previous one times A."""
    out = [np.eye(A.shape[0])]
    while len(out) < k:
        out.append(out[-1] @ A)
    return out[:k]


def _stack_rows(A: np.ndarray, C: np.ndarray, k: int) -> np.ndarray:
    """Sensor-major stack: for each row C_i of C the block [C_i; C_i A; ...; C_i A^{k-1}]."""
    return np.array([C[i] @ P for i in range(len(C)) for P in _powers(A, k)]).reshape(
        -1, A.shape[0])


def build_O(model: SystemModel, subset: SensorSet) -> np.ndarray:
    """Stacked observation matrix of the given sensors over the model window:
    their |subset| blocks of N rows of O_full.  The empty subset yields 0 x n."""
    return model.O_full()[subset.block_rows(model.N)]


def classical_obs_stack(model: SystemModel, subset: SensorSet) -> np.ndarray:
    """n-step observability stack of (A, P_subset C), independent of the window."""
    return _stack_rows(model.A, model.C[list(subset.indices0)], model.n)


def build_overlap_stack(model: SystemModel, compromised: SensorSet) -> np.ndarray:
    """O_full without the last-slot row C_i A^{N-1} of each compromised sensor:
    the clean sensors' full rows and the compromised ones' up to power N-2.
    Its rank splits the over-time attackability analysis into the two branches."""
    return np.delete(model.O_full(), [i * model.N - 1 for i in compromised], axis=0)


# -- eigenstructure -----------------------------------------------------------

def unstable_eigenstructure(A: np.ndarray) -> list[tuple[complex, int, int]]:
    """Eigenvalues with |lambda| >= 1 - STABILITY_MARGIN, as
    (eigenvalue, algebraic multiplicity, geometric multiplicity), ordered by
    (|lambda| desc, angle asc).  Eigenvalues closer than the grouping
    tolerance to a group's first member count as one."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    vals = np.linalg.eig(A)[0]
    scale = max(1.0, float(np.max(np.abs(vals))) if n else 1.0)
    tol = MARGIN_BAND * RANK_TOL * scale
    groups: list[list[complex]] = []
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
        if abs(lam) >= 1.0 - STABILITY_MARGIN:
            geo = n - rank_with_tol(A - lam * np.eye(n))
            out.append((lam, len(g), max(1, geo)))
    return sorted(out, key=lambda t: (-abs(t[0]), np.angle(t[0])))


def unstable_chain(model: SystemModel, compromised: SensorSet):
    """Longest generalized-eigenvector chain usable for over-time attack growth.

    An eigenvector v with C_clean v = 0 has C_clean A^j v = 0 for every j, so
    it lies in U, the unobservable subspace of (A, P_clean C), which is
    A-invariant (Kalman, 1963).  So the search is one eigenproblem of
    A_U = U^T A U, giving (lambda, [v_1, ..., v_k]) for its unstable group of
    largest modulus: v_1 the unit witness, v_j = U c_j (no v_j reaches a clean
    sensor), (A - lambda I) v_{j+1} = v_j and k <= alg - geo + 1.  A complex
    lambda gives [plane], the invariant 2-plane.  None when no unstable
    eigenvector hides.
    """
    U = null_basis(classical_obs_stack(model, compromised.complement()))
    A_U, k = U.T @ model.A @ U, U.shape[1]
    groups = unstable_eigenstructure(A_U)
    if not groups:
        return None
    lam, alg, geo = groups[0]
    c = np.linalg.svd(A_U - lam * np.eye(k))[2][-1].conj()  # least singular vector
    if abs(lam.imag) > _threshold([abs(lam)]):  # complex beyond rounding
        q, _ = np.linalg.qr(U @ np.stack([np.real(c), np.imag(c)], axis=1))
        return lam, [q]
    # rotate the complex phase away by the largest entry in state coordinates
    v = U @ c
    c = np.real(c * np.exp(-1j * np.angle(v[int(np.argmax(np.abs(v)))])))
    coords = [c / np.linalg.norm(c)]
    lam = float(lam.real)
    Alam = A_U - lam * np.eye(k)
    tol = 1e-7 * max(1.0, float(np.linalg.norm(model.A, 2)))
    while len(coords) < alg - geo + 1:
        cand, *_ = np.linalg.lstsq(Alam, coords[-1], rcond=None)
        if np.linalg.norm(Alam @ cand - coords[-1]) > tol * max(1.0, np.linalg.norm(coords[-1])):
            break
        coords.append(cand)
    return lam, [U @ c for c in coords]
