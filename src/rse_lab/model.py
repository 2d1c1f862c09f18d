"""Core system model, stacked observation matrices and eigenstructure utilities.

Layout convention used everywhere in this package: stacked window vectors and
stacked observation matrices are SENSOR-MAJOR.  A window of length N anchored
at time t is the pN vector

    [y_1(t), ..., y_1(t+N-1), y_2(t), ..., y_p(t+N-1)]

i.e. block i (of N rows) belongs to sensor i.  Time-major views are obtained
through explicit permutations; all rank/null-space statements are invariant
under the row permutation, so the choice only has to be consistent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "ConfigError",
    "SensorSet",
    "SystemModel",
    "StackedWindow",
    "build_O",
    "build_overlap_stack",
    "build_auth_O",
    "classical_obs_stack",
    "rank_with_tol",
    "singular_values",
    "rank_margin",
    "null_basis",
    "unstable_eigenstructure",
    "unstable_null_intersection",
    "unstable_chain",
    "max_sparse_observability",
    "suggest_delta_w",
    "stacked_noise_gram",
]

DEFAULT_RANK_TOL = 1e-9
DEFAULT_STABILITY_MARGIN = 1e-9


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


def _as_matrix(M, rows=None, cols=None, name="matrix") -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
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


def rank_with_tol(M: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Numerical rank: number of singular values above rank_tol * max(1, sigma_max).

    The max(1, .) guard keeps the threshold meaningful for near-zero matrices.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    s = singular_values(M)
    if s.size == 0:
        return 0
    thresh = rank_tol * max(1.0, float(s[0]))
    return int(np.sum(s > thresh))


def rank_margin(M: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> tuple[int, float]:
    """Rank plus the normalized distance of the closest singular value to the
    decision threshold.  A small margin flags a borderline rank verdict."""
    s = singular_values(M)
    if s.size == 0:
        return 0, float("inf")
    thresh = rank_tol * max(1.0, float(s[0]))
    rank = int(np.sum(s > thresh))
    margin = float(np.min(np.abs(s - thresh)) / max(1.0, float(s[0])))
    return rank, margin


def null_basis(M: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical null space of M."""
    M = np.atleast_2d(np.asarray(M))
    n = M.shape[1]
    if M.size == 0 or M.shape[0] == 0:
        return np.eye(n)
    U, s, Vh = np.linalg.svd(M)
    thresh = rank_tol * max(1.0, float(s[0]) if s.size else 0.0)
    rank = int(np.sum(s > thresh))
    return Vh[rank:].conj().T


def suggest_delta_w(A: np.ndarray, C: np.ndarray, N: int, delta_vp: float, delta_vm: float) -> float:
    """Conservative per-step bound on the window-effective measurement noise.

    Looking N-1 steps ahead from the window anchor, process noise accumulates
    through C A^j, so ||w_eff(k)|| <= delta_vm + ||C|| sum_{j<k} ||A^j|| delta_vp.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    normC = float(np.linalg.norm(C, 2))
    acc = 0.0
    Pw = np.eye(A.shape[0])
    for _ in range(N - 1):
        acc += float(np.linalg.norm(Pw, 2))
        Pw = Pw @ A
    return float(delta_vm + normC * acc * delta_vp)


def stacked_noise_gram(A: np.ndarray, C: np.ndarray, N: int,
                       delta_vp: float, delta_vm: float) -> np.ndarray:
    """Second-moment structure (up to scale) of the sensor-major stacked noise.

    Entry ((i,k),(j,l)) covers the shared process-noise terms
    w_i(k) = vM_i(k) + sum_{m<k} C_i A^{k-1-m} vP(m), assuming elementwise
    uncorrelated channels with variances proportional to delta^2 / dim.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    p, n = C.shape
    var_m = delta_vm ** 2 / p
    var_p = delta_vp ** 2 / n
    # rows of C A^j for j = 0..N-2, used by window slots k > j
    CA = [C @ np.linalg.matrix_power(A, j) for j in range(N)]
    G = np.zeros((p * N, p * N))
    for i in range(p):
        for k in range(N):
            r = i * N + k
            for j in range(p):
                for l in range(N):
                    c = j * N + l
                    v = var_m if (i == j and k == l) else 0.0
                    for m in range(min(k, l)):
                        v += var_p * float(CA[k - 1 - m][i] @ CA[l - 1 - m][j])
                    G[r, c] = v
    if delta_vm == 0 and delta_vp == 0:
        return np.eye(p * N)
    return G


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
    rank_tol: float = DEFAULT_RANK_TOL
    stability_margin: float = DEFAULT_STABILITY_MARGIN
    delta_vp: Optional[float] = None
    delta_vm: Optional[float] = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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
        object.__setattr__(self, "N", int(self.N))
        if self.delta_w < 0:
            raise ConfigError("delta_w must be nonnegative")
        if self.N < 1:
            raise ConfigError("window length N must be >= 1")
        # the full window stack must recover the state: rank n.  For N >= n this
        # is exactly (A, C) observability (Cayley-Hamilton); for N < n stricter.
        obs = _stack_rows(A, C, np.arange(C.shape[0]), self.N)
        if rank_with_tol(obs, self.rank_tol) < n:
            raise ConfigError(
                "(A, C) window stack is rank deficient at the configured rank_tol")

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

    def sensors(self) -> SensorSet:
        return SensorSet.all(self.p)

    # -- cached stacked operators -------------------------------------------
    def O_full(self) -> np.ndarray:
        if "O" not in self._cache:
            self._cache["O"] = build_O(self, self.sensors())
        return self._cache["O"]

    def O_pinv_norm(self) -> float:
        if "opn" not in self._cache:
            s = singular_values(self.O_full())
            self._cache["opn"] = float(1.0 / s[-1])
        return self._cache["opn"]

    def noise_gram(self) -> Optional[np.ndarray]:
        """Stacked-noise second-moment structure, or None when channel bounds
        were not declared (the decoder then falls back to the plain pseudoinverse)."""
        if self.delta_vp is None or self.delta_vm is None:
            return None
        if "gram" not in self._cache:
            self._cache["gram"] = stacked_noise_gram(
                self.A, self.C, self.N, self.delta_vp, self.delta_vm)
        return self._cache["gram"]

    def powers(self) -> list[np.ndarray]:
        """[I, A, ..., A^{N-1}]"""
        if "pow" not in self._cache:
            out = [np.eye(self.n)]
            for _ in range(self.N - 1):
                out.append(out[-1] @ self.A)
            self._cache["pow"] = out
        return self._cache["pow"]


def _stack_rows(A: np.ndarray, C: np.ndarray, sensors0: Sequence[int], N: int) -> np.ndarray:
    """Sensor-major stack: for each sensor i the block [C_i; C_i A; ...; C_i A^{N-1}]."""
    n = A.shape[0]
    if len(sensors0) == 0:
        return np.empty((0, n))
    powers = [np.eye(n)]
    for _ in range(N - 1):
        powers.append(powers[-1] @ A)
    blocks = []
    for i in sensors0:
        blocks.append(np.vstack([C[i] @ P for P in powers]))
    return np.vstack(blocks)


def build_O(model: SystemModel, subset: SensorSet) -> np.ndarray:
    """Stacked observation matrix of the given sensors over the model window.

    Sensor-major: |subset| blocks of N rows, block i being [C_i; C_i A; ...].
    The empty subset yields a 0 x n matrix.
    """
    return _stack_rows(model.A, model.C, subset.indices0, model.N)


def classical_obs_stack(model: SystemModel, subset: SensorSet) -> np.ndarray:
    """n-step observability stack of (A, P_subset C), independent of the window."""
    return _stack_rows(model.A, model.C, subset.indices0, model.n)


def build_overlap_stack(model: SystemModel, compromised: SensorSet) -> np.ndarray:
    """Stack of the clean sensors' full observation rows and the compromised
    sensors' rows up to power N-2.  Its rank splits the over-time
    attackability analysis into the two branches."""
    clean = compromised.complement()
    top = build_O(model, clean)
    if model.N < 2 or len(compromised) == 0:
        return top
    rows0 = list(compromised.indices0)
    Ck = model.C[rows0]
    powers = model.powers()
    bottom = np.vstack([Ck @ powers[j] for j in range(model.N - 1)])
    return np.vstack([top, bottom])


def build_auth_O(model: SystemModel, compromised: SensorSet,
                 auth_sets: Sequence[SensorSet]) -> np.ndarray:
    """Observation stack where window slot k keeps rows of sensors that are
    either clean or authenticated at that slot (auth_sets[k] at power A^k)."""
    if len(auth_sets) != model.N:
        raise ConfigError(f"need exactly N={model.N} per-slot authentication sets")
    clean = compromised.complement()
    powers = model.powers()
    rows = []
    for k, I_k in enumerate(auth_sets):
        keep = sorted(set(I_k.indices0) | set(clean.indices0))
        if keep:
            rows.append(model.C[keep] @ powers[k])
    if not rows:
        return np.empty((0, model.n))
    return np.vstack(rows)


@dataclass(frozen=True)
class StackedWindow:
    """Sensor-major stacked measurement window anchored at window_start.

    The attack and noise stacks, when known (simulation privilege), share the
    exact same layout.
    """

    y_stacked: np.ndarray
    window_start: int
    p: int
    N: int
    a_stacked: Optional[np.ndarray] = None
    w_stacked: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("y_stacked", "a_stacked", "w_stacked"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=float).ravel()
            if v.size != self.p * self.N:
                raise ConfigError(f"{name} must have p*N={self.p * self.N} entries")
            object.__setattr__(self, name, v)

    @classmethod
    def from_series(cls, series: np.ndarray, t: int, N: int) -> "StackedWindow":
        """Stack rows t..t+N-1 of a (T, p) measurement series."""
        series = np.atleast_2d(np.asarray(series, dtype=float))
        if t < 0 or t + N > series.shape[0]:
            raise ConfigError("window exceeds series bounds")
        return cls(series[t:t + N].T.ravel(), t, series.shape[1], N)

    def per_step(self, k: int) -> np.ndarray:
        """All sensors at window slot k (the transposed, time-major view)."""
        if not 0 <= k < self.N:
            raise IndexError(f"window slot {k} out of range 0..{self.N - 1}")
        return self.y_stacked[k::self.N]

    def sensor_block(self, i: int) -> np.ndarray:
        """Window slots of sensor i (1-based)."""
        return self.y_stacked[(i - 1) * self.N: i * self.N]


# -- eigenstructure -----------------------------------------------------------

def _eig_groups(A: np.ndarray, rank_tol: float) -> list[tuple[complex, int, int]]:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    vals = np.linalg.eig(A)[0]
    scale = max(1.0, float(np.max(np.abs(vals))) if n else 1.0)
    tol = max(1e-8 * scale, rank_tol * scale * 10)
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
        alg = len(g)
        geo = n - rank_with_tol(A - lam * np.eye(n), rank_tol)
        out.append((lam, alg, max(1, geo)))
    return out


def unstable_eigenstructure(A: np.ndarray, stability_margin: float = DEFAULT_STABILITY_MARGIN,
                            rank_tol: float = DEFAULT_RANK_TOL) -> list[tuple[complex, int, int]]:
    """Eigenvalues with |lambda| >= 1 - stability_margin, as
    (eigenvalue, algebraic multiplicity, geometric multiplicity), ordered by
    (|lambda| desc, angle asc)."""
    out = [(lam, alg, geo) for lam, alg, geo in _eig_groups(A, rank_tol)
           if abs(lam) >= 1.0 - stability_margin]
    return sorted(out, key=lambda t: (-abs(t[0]), np.angle(t[0])))


def unstable_null_intersection(model: SystemModel, compromised: SensorSet,
                               stability_margin: Optional[float] = None):
    """Search for an unstable eigenvector inside the clean sensors' null space.

    For each unstable eigenvalue tests rank([A - lambda I; O_clean]) < n; on
    success returns (lambda, witness) where the witness is a unit null vector
    of the stacked matrix, given as a real (n,) vector or an (n, 2) real pair
    spanning the invariant plane when lambda is complex.  Returns None when no
    unstable eigenvalue admits a witness.
    """
    margin = model.stability_margin if stability_margin is None else stability_margin
    O_clean = build_O(model, compromised.complement())
    n = model.n
    for lam, _alg, _geo in unstable_eigenstructure(model.A, margin, model.rank_tol):
        stacked = np.vstack([model.A - lam * np.eye(n), O_clean.astype(complex)])
        basis = null_basis(stacked, model.rank_tol)
        if basis.shape[1] == 0:
            continue
        v = basis[:, 0]
        if abs(lam.imag) <= model.rank_tol * max(1.0, abs(lam)):
            lam_r = float(lam.real)
            # rotate the complex phase away; the vector is real up to phase
            j = int(np.argmax(np.abs(v)))
            v = v * np.exp(-1j * np.angle(v[j]))
            w = np.real(v)
            w = w / np.linalg.norm(w)
            return lam_r, w
        plane = np.stack([np.real(v), np.imag(v)], axis=1)
        q, _ = np.linalg.qr(plane)
        return lam, q
    return None


def unstable_chain(model: SystemModel, compromised: SensorSet):
    """Longest generalized-eigenvector chain usable for over-time attack growth.

    Returns (lambda, [v_1, ..., v_k]) where v_1 is an unstable eigenvector in
    the clean sensors' null space, (A - lambda I) v_{j+1} = v_j, and every
    chain vector stays in that null space (so the whole propagated trajectory
    never touches clean sensors).  Chain length is bounded by the algebraic
    multiplicity.  None when no witness exists.
    """
    hit = unstable_null_intersection(model, compromised)
    if hit is None:
        return None
    lam, v = hit
    if isinstance(lam, complex) or np.ndim(v) == 2:
        return lam, [v]  # complex pair: the invariant 2-plane, no chain extension
    O_clean = build_O(model, compromised.complement())
    Z = null_basis(O_clean, model.rank_tol)  # admissible subspace
    n = model.n
    alg = 1
    for lam_g, alg_g, _ in unstable_eigenstructure(model.A, model.stability_margin, model.rank_tol):
        if abs(lam_g - lam) <= 1e-8 * max(1.0, abs(lam)):
            alg = alg_g
            break
    chain = [v]
    Alam = model.A - lam * np.eye(n)
    scale = max(1.0, float(np.linalg.norm(model.A, 2)))
    while len(chain) < alg:
        # next generalized vector constrained to the admissible subspace
        coeff, *_ = np.linalg.lstsq(Alam @ Z, chain[-1], rcond=None)
        cand = Z @ coeff
        if np.linalg.norm(Alam @ cand - chain[-1]) > 1e-7 * scale * max(1.0, np.linalg.norm(chain[-1])):
            break
        chain.append(cand)
    return float(lam), chain


def max_sparse_observability(model: SystemModel) -> int:
    """Largest k such that observability survives the removal of ANY k sensors
    (brute force over subsets; intended for desk-scale sensor counts)."""
    p, n = model.p, model.n
    for k in range(p, -1, -1):
        # need every remaining set of size p-k observable; check k removals
        ok = True
        for removed in itertools.combinations(range(1, p + 1), k):
            keep = SensorSet.of(set(range(1, p + 1)) - set(removed), p)
            obs = _stack_rows(model.A, model.C, keep.indices0, n)
            if rank_with_tol(obs, model.rank_tol) < n:
                ok = False
                break
        if ok:
            return k
    return 0
