"""Linear representations (u, M, v) of formal rational expressions.

The construction, one iterative pass over the expanded expression tree,
yields an affine pencil M with r(X) = (u* o I) M(X)^{-1} (v o I) wherever r
is defined, and M(X) invertible exactly on the domain of r for square matrix
tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .expr import Expr
from .numkernel import (
    RANK_TOL,
    MatrixTuple,
    full_rank,
    kron,
    lu_solve,
    matrix_to_json,
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
        super().__init__(subexpr, sigma_min)
        self.subexpr = subexpr
        self.sigma_min = sigma_min

    def __str__(self) -> str:
        # most raises are caught and dropped, so the text is built on demand
        return (f"singular inverse at subexpression {ex.to_str(self.subexpr)} "
                f"(sigma_min {self.sigma_min:.3e})")


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
    """The linear representation of r, built without recursion.

    Sizes are exact on the expanded tree: 1 for scalars, 2 for variables,
    e1+e2 for sums and products, e+1 for inverses, so a shared node gets one
    block per occurrence.  No minimization is attempted.  Every occurrence
    owns the diagonal block at its offset in one (d+1, E, E) array, and
    each node's u and v sit at its offset in two length-E vectors, where
    its parent reads them before writing its own.
    """
    if d is None:
        d = max(ex.variables_used(r), default=0)
    size: dict[Expr, int] = {}
    for e in ex.postorder(r):
        size[e] = (1 if e.kind == ex.SCALAR else 2 if e.kind == ex.VAR
                   else sum(size[c] for c in e.children) + (e.kind == ex.INV))
    E = size[r]
    C = np.zeros((d + 1, E, E), dtype=complex)
    u = np.zeros(E, dtype=complex)
    v = np.zeros(E, dtype=complex)
    # preorder (node, offset) of the expanded tree; reversed, children come first
    order, stack = [], [(r, 0)]
    while stack:
        e, o = stack.pop()
        order.append((e, o))
        for c in e.children:
            stack.append((c, o))
            o += size[c]
    # a sum needs nothing beyond its children's blocks, u and v
    for e, o in reversed(order):
        if e.kind == ex.SCALAR:
            C[0, o, o] = 1
            u[o], v[o] = 1, e.value
        elif e.kind == ex.VAR:
            C[0, o:o + 2, o:o + 2] = np.eye(2)
            C[e.index, o, o + 1] = -1
            u[o], v[o + 1] = 1, 1
        elif e.kind == ex.MUL:
            e1, end = size[e.children[0]], o + size[e]
            C[0, o:o + e1, o + e1:end] -= np.outer(v[o:o + e1], u[o + e1:end].conj())
            u[o + e1:end] = 0
            v[o:o + e1] = 0
        elif e.kind == ex.INV:
            e1 = size[e.children[0]]
            C[0, o:o + e1, o + e1] = v[o:o + e1]
            C[0, o + e1, o:o + e1] = u[o:o + e1].conj()
            u[o:o + e1] = v[o:o + e1] = 0
            u[o + e1], v[o + e1] = -1, 1
    return Realization(u, HomogeneousPencil(tuple(C)), v, r)


def realization_eval(rep: Realization, X: MatrixTuple,
                     tol: float = RANK_TOL) -> np.ndarray:
    """(u* o I) M(X)^{-1} (v o I); raises on a singular pencil evaluation."""
    n = X.rows
    MX = affine_eval(rep.pencil, X)
    ok, smin = full_rank(MX, tol)
    if not ok:
        raise DomainError(rep.source, smin)
    rhs = kron(rep.v.reshape(-1, 1), np.eye(n))
    sol = lu_solve(MX, rhs)
    lhs = kron(rep.u.conj().reshape(1, -1), np.eye(n))
    return lhs @ sol


def _safe_inverse(value: np.ndarray, node: Expr, tol: float) -> np.ndarray:
    ok, smin = full_rank(value, tol)
    if not ok:
        raise DomainError(node, smin)
    return lu_solve(value, np.eye(value.shape[0]))


def eval_expr(r: Expr, X: MatrixTuple, tol: float = RANK_TOL) -> np.ndarray:
    """Evaluation at a square tuple, each distinct node once.

    Raises DomainError naming the innermost singular inverse node.
    """
    return eval_exprs((r,), X, tol)[0]


def eval_exprs(roots, X: MatrixTuple, tol: float = RANK_TOL,
               memo: dict | None = None) -> list[np.ndarray]:
    """The values of several expressions at X, through one memo.

    Nodes are evaluated in `expr.postorder`, with the operations of the tree
    evaluator on the same operands, so values are bit-for-bit those of a
    recursive walk and the first singular inverse reached is the same.
    `memo`, the values at X of nodes evaluated before, is read and extended:
    the walk does not enter a node it holds.
    """
    if X.rows != X.cols:
        raise ValueError("evaluation needs a square tuple")
    n = X.rows
    # keyed by node, not id(): a memo keyed by id() would not keep its nodes
    # alive, the basis sweep drops the candidates it rejects, and a new node
    # that reused a freed id would read a stale value
    vals: dict[Expr, np.ndarray] = {} if memo is None else memo
    for e in ex.postorder(*roots, skip=vals):
        if e.kind == ex.SCALAR:
            val = e.value * np.eye(n)
        elif e.kind == ex.VAR:
            if e.index > X.d:
                raise ValueError(f"expression uses x{e.index} but tuple has d={X.d}")
            val = np.array(X[e.index - 1])
        elif e.kind == ex.ADD:
            val = vals[e.children[0]] + vals[e.children[1]]
        elif e.kind == ex.MUL:
            val = vals[e.children[0]] @ vals[e.children[1]]
        else:
            val = _safe_inverse(vals[e.children[0]], e, tol)
        vals[e] = val
    return [vals[r] for r in roots]


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
    return full_rank(affine_eval(rep.pencil, X), tol)
