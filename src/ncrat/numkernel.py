"""Dense complex linear algebra and seeded random tuple generation.

Everything is complex128 numpy; tolerances are relative to sigma_max or the
max-norm of the input.  The RNG is numpy's default PCG64, so results are
bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "SingularMatrixError",
    "NotPositiveDefiniteError",
    "MatrixTuple",
    "lu_solve",
    "full_rank",
    "random_tuple",
    "kron",
    "hermitian_eig",
    "cholesky",
    "norm_max",
    "herm_deviation",
    "is_hermitian",
    "matrix_to_json",
    "matrix_from_json",
    "vector_from_json",
]

# relative singular-value threshold for every rank, fullness and
# invertibility test
RANK_TOL = 1e-9
PIVOT_TOL = 1e-13
# relative deviation threshold of every hermitian-data test
HERM_TOL = 1e-12


class SingularMatrixError(np.linalg.LinAlgError):
    pass


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    def __init__(self, min_eig: float):
        super().__init__(f"matrix is not positive definite (min eigenvalue {min_eig:.3e})")
        self.min_eig = min_eig


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return m


def norm_max(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def herm_deviation(a) -> float:
    a = _as_matrix(a)
    return norm_max(a - a.conj().T)


def is_hermitian(a, tol: float = HERM_TOL) -> bool:
    """Whether A is finite and max|A - A*| stays within tol * max(1, max|A|)."""
    return bool(np.isfinite(a).all()) and herm_deviation(a) <= tol * max(1.0, norm_max(a))


def lu_solve(A, B) -> np.ndarray:
    """Solve A X = B by LU with partial pivoting; rejects tiny pivots."""
    A = _as_matrix(A)
    B = _as_matrix(B)
    if A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if A.shape[0] != B.shape[0]:
        raise ValueError("A and B have incompatible shapes")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) < PIVOT_TOL * max(norm_max(A), 1e-300):
        raise SingularMatrixError(
            f"singular matrix: pivot {np.min(pivots):.3e} below {PIVOT_TOL:.1e}*max|A|"
        )
    return scipy.linalg.lu_solve((lu, piv), B, check_finite=False)


def sigma_extremes(A) -> tuple[float, float]:
    """(sigma_min, sigma_max) of A."""
    A = _as_matrix(A)
    if A.size == 0:
        return 0.0, 0.0
    s = np.linalg.svd(A, compute_uv=False)
    return float(s[-1]), float(s[0])


def full_rank(A, tol: float = RANK_TOL) -> tuple[bool, float]:
    """The one rank, fullness and invertibility test: whether
    sigma_min > tol * sigma_max on one SVD of A, and sigma_min.

    sigma_max is floored at 1e-300, so a zero matrix never passes; a matrix
    with no entries does.  For a wide matrix this is full row rank; callers
    that need full column rank check the shape first.
    """
    if _as_matrix(A).size == 0:
        return True, 0.0
    smin, smax = sigma_extremes(A)
    return smin > tol * max(smax, 1e-300), smin


def kron(A, B) -> np.ndarray:
    return np.kron(_as_matrix(A), _as_matrix(B))


def hermitian_eig(A) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, ascending) and unitary eigenvectors of hermitian A."""
    A = _as_matrix(A)
    w, V = np.linalg.eigh(A)
    return w, V


def cholesky(A) -> np.ndarray:
    """Lower Cholesky factor; reports the minimum eigenvalue on failure."""
    A = _as_matrix(A)
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh((A + A.conj().T) / 2)
        raise NotPositiveDefiniteError(float(w[0])) from None


# ---------------------------------------------------------------------------
# matrix tuples

@dataclass(frozen=True)
class MatrixTuple:
    """Tuple of d same-shape complex matrices, with hermitian bookkeeping."""

    matrices: tuple[np.ndarray, ...]
    hermitian: bool = False
    real_symmetric: bool = False

    def __post_init__(self):
        mats = tuple(_as_matrix(m) for m in self.matrices)
        for m in mats:
            m.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        shapes = {m.shape for m in mats}
        if len(shapes) > 1:
            raise ValueError("all matrices in a tuple must share a shape")
        if self.hermitian:
            if self.rows != self.cols:
                raise ValueError("hermitian tuples must be square")
            for m in mats:
                if not is_hermitian(m):
                    raise ValueError("hermitian flag set on non-hermitian matrix")
        if self.real_symmetric:
            if not self.hermitian:
                raise ValueError("real-symmetric implies hermitian")
            for m in mats:
                if norm_max(m.imag) > 1e-12:
                    raise ValueError("real-symmetric flag set on complex matrix")

    @property
    def d(self) -> int:
        return len(self.matrices)

    @property
    def rows(self) -> int:
        return self.matrices[0].shape[0] if self.matrices else 0

    @property
    def cols(self) -> int:
        return self.matrices[0].shape[1] if self.matrices else 0

    def __getitem__(self, j: int) -> np.ndarray:
        return self.matrices[j]

    def __iter__(self):
        return iter(self.matrices)

    def adjoint(self) -> "MatrixTuple":
        return MatrixTuple(
            tuple(m.conj().T for m in self.matrices),
            hermitian=self.hermitian,
            real_symmetric=self.real_symmetric,
        )

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "rows": self.rows,
            "cols": self.cols,
            "hermitian": self.hermitian,
            "matrices": [matrix_to_json(m) for m in self.matrices],
        }

    @staticmethod
    def from_json(obj: dict) -> "MatrixTuple":
        mats = tuple(matrix_from_json(m, f"matrices[{k}]")
                     for k, m in enumerate(obj["matrices"]))
        return MatrixTuple(mats, hermitian=bool(obj.get("hermitian", False)))


def matrix_to_json(m) -> list:
    m = _as_matrix(m)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _finite(p) -> bool:
    if isinstance(p, bool) or not isinstance(p, (int, float)):
        return False
    try:
        return math.isfinite(p)
    except OverflowError:  # an int beyond the float range
        return False


def _json_entry(z, name: str, where: tuple[int, ...]) -> complex:
    if isinstance(z, list) and len(z) == 2 and _finite(z[0]) and _finite(z[1]):
        return complex(z[0], z[1])
    at = "".join(f"[{k}]" for k in where)
    raise ValueError(f"{name} entry {at} is {z!r}, expected a [re, im] pair "
                     "of finite numbers")


def matrix_from_json(rows, name: str = "matrix") -> np.ndarray:
    """A complex matrix from its JSON form, rows of [re, im] pairs; raises
    ValueError naming the first malformed or non-finite entry."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{name} {rows!r} is not a list of rows")
    return np.array([[_json_entry(z, name, (i, j)) for j, z in enumerate(row)]
                     for i, row in enumerate(rows)], dtype=complex)


def vector_from_json(entries, name: str = "vector") -> np.ndarray:
    """A complex vector from its JSON form, a list of [re, im] pairs; raises
    ValueError naming the first malformed or non-finite entry."""
    if not isinstance(entries, list):
        raise ValueError(f"{name} must be a list of [re, im] pairs, not {entries!r}")
    return np.array([_json_entry(z, name, (i,)) for i, z in enumerate(entries)],
                    dtype=complex)


def _complex_gauss(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_tuple(d: int, rows: int, cols: int, mode: str = "generic", seed=None,
                 rng: np.random.Generator | None = None) -> MatrixTuple:
    """i.i.d. standard Gaussian matrix tuple; deterministic for a fixed seed.

    Modes: "generic" (complex), "hermitian" ((G+G*)/2), "real-symmetric".
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if mode == "generic":
        mats = tuple(_complex_gauss(rng, rows, cols) for _ in range(d))
        return MatrixTuple(mats)
    if rows != cols:
        raise ValueError(f"mode {mode} requires square matrices")
    if mode == "hermitian":
        mats = []
        for _ in range(d):
            g = _complex_gauss(rng, rows, cols)
            mats.append((g + g.conj().T) / 2)
        return MatrixTuple(tuple(mats), hermitian=True)
    if mode == "real-symmetric":
        mats = []
        for _ in range(d):
            g = rng.standard_normal((rows, cols))
            mats.append(((g + g.T) / 2).astype(complex))
        return MatrixTuple(tuple(mats), hermitian=True, real_symmetric=True)
    raise ValueError(f"unknown mode {mode!r}")
