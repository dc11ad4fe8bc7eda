"""Representatives with enlarged hermitian domains.

schur_inverse_rep inverts a matrix of expressions by the recursion
m^{-1} = (m*m)^{-1} m*, peeling off the (1,1) entry c*c of m*m (c the first
column of m) via its Schur complement.  widen_hdom applies this to the
realization pencil of an expression, yielding a representative defined
wherever the pencil is invertible.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .expr import Expr, ExprMatrix
from .numkernel import RANK_TOL, MatrixTuple, full_rank, random_tuple
from .realization import build_realization, eval_exprs, DomainError

__all__ = [
    "schur_inverse_rep",
    "widen_hdom",
    "pencil_to_expr_matrix",
    "eval_expr_matrix",
    "NotInvertibleError",
]


class NotInvertibleError(ValueError):
    """The expression matrix is (probably) not invertible over the free skew field."""


def _add(a: Expr, b: Expr) -> Expr:
    # domain-enlarging simplifications are fine here: the construction only
    # promises hdom(output) >= hdom(input)
    if a.kind == ex.SCALAR and a.value == 0:
        return b
    if b.kind == ex.SCALAR and b.value == 0:
        return a
    return ex.add(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if (a.kind == ex.SCALAR and a.value == 0) or (b.kind == ex.SCALAR and b.value == 0):
        return ex.scalar(0)
    if a.kind == ex.SCALAR and a.value == 1:
        return b
    if b.kind == ex.SCALAR and b.value == 1:
        return a
    return ex.mul(a, b)


def _dot(row: list[Expr], col: list[Expr]) -> Expr:
    acc = ex.scalar(0)
    for a, b in zip(row, col):
        acc = _add(acc, _mul(a, b))
    return acc


def _matmul(A: ExprMatrix, B: ExprMatrix) -> ExprMatrix:
    if A.cols != B.rows:
        raise ValueError("shape mismatch")
    ent = []
    for i in range(A.rows):
        for j in range(B.cols):
            ent.append(_dot([A.at(i, k) for k in range(A.cols)],
                            [B.at(k, j) for k in range(B.rows)]))
    return ExprMatrix(A.rows, B.cols, tuple(ent))


def eval_expr_matrix(m: ExprMatrix, X: MatrixTuple, tol: float = RANK_TOL) -> np.ndarray:
    """Blockwise evaluation of an expression matrix at a square tuple; the
    entries share one memo."""
    n = X.rows
    vals = iter(eval_exprs(m.entries, X, tol))
    out = np.zeros((m.rows * n, m.cols * n), dtype=complex)
    for i in range(m.rows):
        for j in range(m.cols):
            out[i * n:(i + 1) * n, j * n:(j + 1) * n] = next(vals)
    return out


def _probably_invertible(m: ExprMatrix, d: int, seed=0,
                         tol: float = RANK_TOL) -> bool:
    """Invertibility over the free skew field, checked by random hermitian
    evaluation at 12 probes of sizes 1..3 (false negatives possible only on
    measure-zero failure of every probe)."""
    rng = np.random.default_rng(seed)
    for t in range(12):
        n = 1 + t % 3
        X = random_tuple(d, n, n, mode="hermitian", rng=rng)
        try:
            val = eval_expr_matrix(m, X, tol)
        except DomainError:
            continue
        if full_rank(val, tol)[0]:
            return True
    return False


def schur_inverse_rep(m: ExprMatrix, d: int | None = None, seed=0,
                      tol: float = RANK_TOL) -> ExprMatrix:
    """A representative of m^{-1} defined on hdom m intersect hdom m^{-1}.

    Recursion: for e = 1 invert the entry; otherwise let c be the first
    column of m, invert the scalar c*c, form the Schur complement of c*c in
    m*m, recurse, and assemble (m*m)^{-1} m*.
    """
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    if d is None:
        d = max((max(ex.variables_used(e), default=0) for e in m.entries), default=0)
    if not _probably_invertible(m, max(d, 1), seed=seed, tol=tol):
        raise NotInvertibleError("matrix evaluates singularly at all probes")
    mstar = m.adjoint()
    return _matmul(_schur_block_inverse(_matmul(mstar, m)), mstar)


def _schur_block_inverse(G: ExprMatrix) -> ExprMatrix:
    """Block inverse of a (formally hermitian positive) matrix of expressions.

    The (1,1) entry of a Gram matrix c*c stays invertible on the whole
    hermitian domain of the original matrix, as does its Schur complement,
    which is again of Gram type; peel and recurse.
    """
    e = G.rows
    if e == 1:
        return ExprMatrix(1, 1, (ex.inv(G.at(0, 0)),))
    g11_inv = ex.inv(G.at(0, 0))
    g12 = [G.at(0, j) for j in range(1, e)]
    g21 = [G.at(i, 0) for i in range(1, e)]
    h = [_mul(g, g11_inv) for g in g21]
    inner = []
    for i in range(1, e):
        for j in range(1, e):
            inner.append(_add(G.at(i, j), _mul(ex.scalar(-1), _mul(h[i - 1], g12[j - 1]))))
    shat = _schur_block_inverse(ExprMatrix(e - 1, e - 1, tuple(inner)))
    rows = [[shat.at(i, k) for k in range(e - 1)] for i in range(e - 1)]
    cols = [[shat.at(k, j) for k in range(e - 1)] for j in range(e - 1)]
    corr = _dot(g12, [_dot(row, h) for row in rows])
    out = [_add(g11_inv, _mul(g11_inv, corr))]
    out += [_mul(ex.scalar(-1), _mul(g11_inv, _dot(g12, col))) for col in cols]
    for row in rows:
        out += [_mul(ex.scalar(-1), _mul(_dot(row, g21), g11_inv))] + row
    return ExprMatrix(e, e, tuple(out))


def pencil_to_expr_matrix(coeffs) -> ExprMatrix:
    """Affine pencil coefficients (M0..Md) as a matrix of linear expressions."""
    coeffs = [np.asarray(c, dtype=complex) for c in coeffs]
    e = coeffs[0].shape[0]
    ent = []
    for i in range(e):
        for j in range(e):
            acc = ex.scalar(coeffs[0][i, j])
            for k in range(1, len(coeffs)):
                acc = _add(acc, _mul(ex.scalar(coeffs[k][i, j]), ex.var(k)))
            ent.append(acc)
    return ExprMatrix(e, e, tuple(ent))


def widen_hdom(r: Expr, pencil_override: tuple | None = None,
               d: int | None = None, seed=0, tol: float = RANK_TOL) -> Expr:
    """A representative of the same rational function whose hermitian domain
    contains every hermitian tuple where the representation pencil is
    invertible.

    Without a minimal pencil the guarantee is hdom(output) >= hdom(r as
    given); pass pencil_override = (u, coeffs, v) with a minimal pencil to
    reach the largest hermitian domain.
    """
    if d is None:
        d = max(ex.variables_used(r), default=1)
    if pencil_override is not None:
        u, coeffs, v = pencil_override
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        M = pencil_to_expr_matrix(coeffs)
        if u.shape != (M.rows,) or v.shape != (M.rows,):
            raise ValueError(f"u and v need one entry per pencil row ({M.rows})")
    else:
        rep = build_realization(r, d)
        u, v = rep.u, rep.v
        M = pencil_to_expr_matrix(rep.pencil.coeffs)
    S = schur_inverse_rep(M, d=d, seed=seed, tol=tol)
    acc = ex.scalar(0)
    for i in range(S.rows):
        if u[i] == 0:
            continue
        for j in range(S.cols):
            if v[j] == 0:
                continue
            term = _mul(ex.scalar(np.conj(u[i])), _mul(S.at(i, j), ex.scalar(v[j])))
            acc = _add(acc, term)
    return acc
