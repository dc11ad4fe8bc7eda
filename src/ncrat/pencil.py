"""The pencil type: rectangular evaluation, probabilistic fullness testing,
and the rank conditions used by the extension theorems.

One type serves three roles.  A homogeneous pencil L1 x1 + ... + Ld xd is
evaluated at (X1..Xd).  An affine pencil M0 + M1 x1 + ... + Md xd (a
realization) has the constant as coefficient 0, and a monic hermitian LMI
I + H1 x1 + ... + Hd xd is the pencil (I_e, H1..Hd); both are evaluated at
(I_n, X1..Xd) by `affine_eval`, and their variable count leaves out the
constant slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import (
    RANK_TOL,
    MatrixTuple,
    full_rank,
    kron,
    matrix_to_json,
    random_tuple,
)

__all__ = [
    "HomogeneousPencil",
    "FullnessReport",
    "rect_eval",
    "affine_eval",
    "is_full",
    "rank_conditions",
]


@dataclass(frozen=True)
class HomogeneousPencil:
    """L1 x1 + ... + Ld xd with e x e coefficients.

    An affine pencil or a monic LMI keeps its constant as coefficient 0.
    """

    coeffs: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(c, dtype=complex) for c in self.coeffs)
        sizes = {c.shape for c in mats}
        if len(sizes) != 1 or any(c.shape[0] != c.shape[1] for c in mats):
            raise ValueError("pencil coefficients must be square and share a size")
        object.__setattr__(self, "coeffs", mats)

    @property
    def size(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def transpose(self) -> "HomogeneousPencil":
        return HomogeneousPencil(tuple(c.T for c in self.coeffs))

    def to_json(self) -> dict:
        return {"e": self.size, "coeffs": [matrix_to_json(c) for c in self.coeffs]}


def rect_eval(L: HomogeneousPencil, X: MatrixTuple) -> np.ndarray:
    """sum_j Lj o Xj for a possibly rectangular tuple X."""
    if X.d != L.nvars:
        raise ValueError(f"pencil has {L.nvars} variables, tuple has {X.d}")
    out = np.zeros((L.size * X.rows, L.size * X.cols), dtype=complex)
    for j in range(X.d):
        out += kron(L.coeffs[j], X[j])
    return out


def affine_eval(L: HomogeneousPencil, X: MatrixTuple) -> np.ndarray:
    """L0 o I_n + sum_j Lj o Xj: L at (I_n, X1..Xd) for a square tuple X."""
    if X.rows != X.cols:
        raise ValueError("affine pencil evaluation needs a square tuple")
    return rect_eval(L, MatrixTuple((np.eye(X.rows),) + X.matrices))


@dataclass(frozen=True)
class FullnessReport:
    verdict: str  # "full" | "not-full-probabilistic" | "degenerate"
    witness: MatrixTuple | None
    witness_sigma_min: float
    trials_used: int
    size_probed: int

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "witness": self.witness.to_json() if self.witness is not None else None,
            "witness_sigma_min": self.witness_sigma_min,
            "trials_used": self.trials_used,
            "size_probed": self.size_probed,
        }


def is_full(pencil: HomogeneousPencil, trials: int = 20, seed=0,
            tol: float = RANK_TOL, affine: bool = False) -> FullnessReport:
    """Probabilistic fullness test at the guaranteed witness size max(1, e-1).

    A single generic invertible evaluation certifies fullness; if every trial
    is singular, det vanishes identically at that size with probability 1 and
    the pencil is not full.  With affine=True coefficient 0 is the constant
    term and the witness tuple has one matrix per remaining coefficient.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    e = pencil.size
    d = pencil.nvars - 1 if affine else pencil.nvars
    if all(np.all(c == 0) for c in pencil.coeffs):
        return FullnessReport("degenerate", None, 0.0, 0, 0)
    n = max(1, e - 1)
    rng = np.random.default_rng(seed)
    last_smin = 0.0
    for t in range(trials):
        X = random_tuple(d, n, n, mode="generic", rng=rng)
        MX = affine_eval(pencil, X) if affine else rect_eval(pencil, X)
        ok, last_smin = full_rank(MX, tol)
        if ok:
            return FullnessReport("full", X, last_smin, t + 1, n)
    return FullnessReport("not-full-probabilistic", None, last_smin, trials, n)


def rank_conditions(L: HomogeneousPencil, Y: MatrixTuple, Yp: MatrixTuple,
                    Ypp: MatrixTuple, tol: float = RANK_TOL):
    """Full column rank of L([Y; Y']) and full row rank of L([Y  Y'']).

    Y is l x l, Y' is m x l, Y'' is l x m.  Returns (col_ok, row_ok, sigmas).
    """
    ell = Y.rows
    if Y.cols != ell:
        raise ValueError("Y must be square")
    if Yp.d and Yp.cols != ell:
        raise ValueError("Y' must have l columns")
    if Ypp.d and Ypp.rows != ell:
        raise ValueError("Y'' must have l rows")
    stacked = MatrixTuple(tuple(np.vstack([Y[j], Yp[j]]) for j in range(Y.d)))
    concat = MatrixTuple(tuple(np.hstack([Y[j], Ypp[j]]) for j in range(Y.d)))
    # [Y; Y'] is tall and [Y  Y''] wide, so full rank is column and row rank
    col_ok, col_smin = full_rank(rect_eval(L, stacked), tol)
    row_ok, row_smin = full_rank(rect_eval(L, concat), tol)
    return col_ok, row_ok, (col_smin, row_smin)
