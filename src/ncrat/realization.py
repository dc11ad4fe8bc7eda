"""Linear representations (u, M, v) of formal rational expressions.

The recursive construction yields an affine pencil M with
r(X) = (u* o I) M(X)^{-1} (v o I) wherever r is defined, and M(X) invertible
exactly on the domain of r for square matrix tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr
from .numkernel import (
    RANK_TOL,
    MatrixTuple,
    kron,
    lu_solve,
    matrix_to_json,
    nonsingular,
    sigma_extremes,
)
from .pencil import HomogeneousPencil, affine_eval

__all__ = [
    "Realization",
    "DomainError",
    "build_realization",
    "eval_expr",
    "eval_exprs",
    "realization_eval",
    "in_domain",
]


class DomainError(ArithmeticError):
    """An inverse node is singular at the evaluated tuple."""

    def __init__(self, subexpr: Expr, sigma_min: float):
        super().__init__(
            f"singular inverse at subexpression {ex.to_str(subexpr)} (sigma_min {sigma_min:.3e})"
        )
        self.subexpr = subexpr
        self.sigma_min = sigma_min


@dataclass(frozen=True)
class Realization:
    u: np.ndarray
    pencil: HomogeneousPencil  # affine: M0 (constant) first, then M1..Md
    v: np.ndarray
    source: Expr

    @property
    def size(self) -> int:
        return self.pencil.size

    def to_json(self) -> dict:
        return {
            "e": self.size,
            "u": [[float(z.real), float(z.imag)] for z in self.u],
            "v": [[float(z.real), float(z.imag)] for z in self.v],
            "M": [matrix_to_json(c) for c in self.pencil.coeffs],
        }


def build_realization(r: Expr, d: int | None = None) -> Realization:
    """Recursive construction of a linear representation of r.

    Sizes are exact: 1 for scalars, 2 for variables, e1+e2 for sums and
    products, e+1 for inverses.  No minimization is attempted.
    """
    if d is None:
        d = max(ex.variables_used(r), default=0)
    u, coeffs, v = _build(r, d)
    return Realization(u, HomogeneousPencil(tuple(coeffs)), v, r)


def _zeros(e: int, d: int) -> list[np.ndarray]:
    return [np.zeros((e, e), dtype=complex) for _ in range(d + 1)]


def _build(r: Expr, d: int):
    if r.kind == ex.SCALAR:
        coeffs = _zeros(1, d)
        coeffs[0][0, 0] = 1
        return np.array([1.0 + 0j]), coeffs, np.array([r.value])
    if r.kind == ex.VAR:
        coeffs = _zeros(2, d)
        coeffs[0][:] = np.eye(2)
        coeffs[r.index][0, 1] = -1
        u = np.array([1, 0], dtype=complex)
        v = np.array([0, 1], dtype=complex)
        return u, coeffs, v
    if r.kind == ex.ADD:
        u1, c1, v1 = _build(r.children[0], d)
        u2, c2, v2 = _build(r.children[1], d)
        e1, e2 = len(u1), len(u2)
        coeffs = _zeros(e1 + e2, d)
        for k in range(d + 1):
            coeffs[k][:e1, :e1] = c1[k]
            coeffs[k][e1:, e1:] = c2[k]
        return np.concatenate([u1, u2]), coeffs, np.concatenate([v1, v2])
    if r.kind == ex.MUL:
        u1, c1, v1 = _build(r.children[0], d)
        u2, c2, v2 = _build(r.children[1], d)
        e1, e2 = len(u1), len(u2)
        coeffs = _zeros(e1 + e2, d)
        for k in range(d + 1):
            coeffs[k][:e1, :e1] = c1[k]
            coeffs[k][e1:, e1:] = c2[k]
        coeffs[0][:e1, e1:] -= np.outer(v1, u2.conj())
        u = np.concatenate([u1, np.zeros(e2, dtype=complex)])
        v = np.concatenate([np.zeros(e1, dtype=complex), v2])
        return u, coeffs, v
    # inverse
    u1, c1, v1 = _build(r.children[0], d)
    e1 = len(u1)
    coeffs = _zeros(e1 + 1, d)
    for k in range(d + 1):
        coeffs[k][:e1, :e1] = c1[k]
    coeffs[0][:e1, e1] = v1
    coeffs[0][e1, :e1] = u1.conj()
    u = np.zeros(e1 + 1, dtype=complex)
    u[e1] = -1
    v = np.zeros(e1 + 1, dtype=complex)
    v[e1] = 1
    return u, coeffs, v


def realization_eval(rep: Realization, X: MatrixTuple,
                     tol: float = RANK_TOL) -> np.ndarray:
    """(u* o I) M(X)^{-1} (v o I); raises on a singular pencil evaluation."""
    n = X.rows
    MX = affine_eval(rep.pencil, X)
    smin, smax = sigma_extremes(MX)
    if not nonsingular(smin, smax, tol):
        raise DomainError(rep.source, smin)
    rhs = kron(rep.v.reshape(-1, 1), np.eye(n))
    sol = lu_solve(MX, rhs)
    lhs = kron(rep.u.conj().reshape(1, -1), np.eye(n))
    return lhs @ sol


def _safe_inverse(value: np.ndarray, node: Expr, tol: float) -> np.ndarray:
    smin, smax = sigma_extremes(value)
    if not nonsingular(smin, smax, tol):
        raise DomainError(node, smin)
    return lu_solve(value, np.eye(value.shape[0]))


def eval_expr(r: Expr, X: MatrixTuple, tol: float = RANK_TOL) -> np.ndarray:
    """Evaluation at a square tuple, each distinct node once.

    Raises DomainError naming the innermost singular inverse node.
    """
    return eval_exprs((r,), X, tol)[0]


def eval_exprs(roots, X: MatrixTuple, tol: float = RANK_TOL) -> list[np.ndarray]:
    """The values of several expressions at X, through one memo.

    Nodes are evaluated in `expr.postorder`, with the operations of the tree
    evaluator on the same operands, so values are bit-for-bit those of a
    recursive walk and the first singular inverse reached is the same.
    """
    if X.rows != X.cols:
        raise ValueError("evaluation needs a square tuple")
    n = X.rows
    vals: dict[int, np.ndarray] = {}
    for e in ex.postorder(*roots):
        if e.kind == ex.SCALAR:
            val = e.value * np.eye(n)
        elif e.kind == ex.VAR:
            if e.index > X.d:
                raise ValueError(f"expression uses x{e.index} but tuple has d={X.d}")
            val = np.array(X[e.index - 1])
        elif e.kind == ex.ADD:
            val = vals[id(e.children[0])] + vals[id(e.children[1])]
        elif e.kind == ex.MUL:
            val = vals[id(e.children[0])] @ vals[id(e.children[1])]
        else:
            val = _safe_inverse(vals[id(e.children[0])], e, tol)
        vals[id(e)] = val
    return [vals[id(r)] for r in roots]


def in_domain(r: Expr, X: MatrixTuple, d: int | None = None,
              tol: float = RANK_TOL,
              rep: Realization | None = None) -> tuple[bool, float]:
    """Whether the realization pencil of r is invertible at X.

    Returns (verdict, sigma_min of M(X)).
    """
    if rep is None:
        if d is None:
            d = max(max(ex.variables_used(r), default=0), X.d)
        rep = build_realization(r, d)
    MX = affine_eval(rep.pencil, X)
    smin, smax = sigma_extremes(MX)
    return nonsingular(smin, smax, tol), smin
