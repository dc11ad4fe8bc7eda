"""Truncated GNS machinery: subexpression sets, product spaces, and the
extraction of a numerically independent function basis.

The span V_l of products of at most l subexpressions of r and r* is probed by
evaluating every candidate word at hermitian sample tuples of growing size.
A greedy rank-revealing sweep over the vectorized evaluations picks a maximal
independent subset; by the local-global linear dependence principle this is a
basis of V_l with probability 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import expr as ex
from .expr import Expr
from .numkernel import (
    RANK_TOL,
    MatrixTuple,
    hermitian_eig,
    matrix_to_json,
    norm_max,
    random_tuple,
)
from .realization import DomainError, eval_expr

__all__ = [
    "SubexprSet",
    "EvalInnerProduct",
    "FunctionBasis",
    "SamplingError",
    "build_R",
    "build_basis",
    "sample_points",
    "inner_product",
]

NORM_CAP = 1e6


class SamplingError(RuntimeError):
    """No admissible hermitian sample tuple found within the trial budget."""

    def __init__(self, blocking: Expr | None, size: int, trials: int):
        what = ex.to_str(blocking) if blocking is not None else "unknown"
        super().__init__(
            f"no hermitian sample of size {size} admitted after {trials} trials "
            f"(blocking subexpression: {what})"
        )
        self.blocking = blocking


@dataclass(frozen=True)
class SubexprSet:
    """R = {1} plus all non-scalar subexpressions of r and r*."""

    generator: Expr
    exprs: tuple[Expr, ...]  # exprs[0] == 1

    @property
    def d(self) -> int:
        return max(ex.variables_used(self.generator), default=0)

    def __len__(self) -> int:
        return len(self.exprs)


def build_R(r: Expr) -> SubexprSet:
    """Collect {1} and the non-scalar subexpressions of r and r*.

    The result is closed under the involution and lists expressions in a
    deterministic order: 1 first, then postorder of r, then new ones from r*.
    """
    def strip(q: Expr) -> Expr:
        # scalar multiples span nothing new; drop them for a leaner R
        while q.kind == ex.MUL:
            a, b = q.children
            if a.kind == ex.SCALAR:
                q = b
            elif b.kind == ex.SCALAR:
                q = a
            else:
                break
        return q

    seen: dict[str, Expr] = {}
    out = [ex.scalar(1)]
    seen[ex.to_str(out[0])] = out[0]
    for root in (r, ex.involution(r)):
        for q in ex.subexpressions(root):
            q = strip(q)
            if q.kind == ex.SCALAR:
                continue
            key = ex.to_str(q)
            if key not in seen:
                seen[key] = q
                out.append(q)
    return SubexprSet(r, tuple(out))


@dataclass(frozen=True)
class EvalInnerProduct:
    """Positive functional phi(s) = sum_k w_k tr(s(X_k)) / n_k, truncated to a
    finite hermitian sample set, and the inner product (s1, s2) = phi(s2* s1)."""

    samples: tuple[MatrixTuple, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.samples) != len(self.weights):
            raise ValueError("one weight per sample")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")


def default_weights(samples) -> tuple[float, ...]:
    # the k-th term of the defining series is tr(.)/(k! n_k)
    return tuple(1.0 / (factorial(k + 1) * X.rows) for k, X in enumerate(samples))


def inner_product(s1: Expr, s2: Expr, ip: EvalInnerProduct) -> complex:
    total = 0.0 + 0.0j
    for X, w in zip(ip.samples, ip.weights):
        a = eval_expr(s1, X)
        b = eval_expr(s2, X)
        total += w * np.trace(b.conj().T @ a) / X.rows
    return complex(total)


def _admits(R: SubexprSet, X: MatrixTuple, cap: float = NORM_CAP):
    """All elements of R defined at X with norms under the cap; returns the
    blocking subexpression if not."""
    for q in R.exprs:
        try:
            val = eval_expr(q, X)
        except DomainError as err:
            return err.subexpr
        if norm_max(val) > cap:
            return q
    return None


def sample_points(R: SubexprSet, sizes, rng, per_size: int = 3,
                  trial_budget: int = 200, d: int | None = None) -> list[MatrixTuple]:
    """Hermitian tuples of the given sizes in the common domain of R, found by
    rejection sampling."""
    if d is None:
        d = max(R.d, 1)
    out = []
    for n in sizes:
        got = 0
        blocking = None
        for _ in range(trial_budget):
            X = random_tuple(d, n, n, mode="hermitian", rng=rng)
            blk = _admits(R, X)
            if blk is None:
                out.append(X)
                got += 1
                if got == per_size:
                    break
            else:
                blocking = blk
        if got == 0:
            raise SamplingError(blocking, n, trial_budget)
    return out


def _words(R: SubexprSet, level: int):
    """All products of at most `level` elements of R, structurally deduped.

    Words are yielded by increasing length so that a basis extracted by an
    in-order sweep at level l is a prefix of the one at level l+1.
    """
    one = R.exprs[0]
    seen = {ex.to_str(one)}
    words = [(one, ())]
    frontier = [((), one)]
    for _ in range(level):
        nxt = []
        for idx, w in frontier:
            for j in range(1, len(R.exprs)):
                prod = ex.mul(w, R.exprs[j]) if idx else R.exprs[j]
                key = ex.to_str(prod)
                if key in seen:
                    continue
                seen.add(key)
                words.append((prod, idx + (j,)))
                nxt.append((idx + (j,), prod))
        frontier = nxt
    return words


def _eval_matrix(words, samples) -> np.ndarray:
    """Vectorized evaluations: one column per word, rows stacked over samples."""
    cols = []
    for w, _ in words:
        vec = []
        for X in samples:
            vec.append(eval_expr(w, X).ravel())
        cols.append(np.concatenate(vec))
    return np.array(cols).T


def _greedy_select(A: np.ndarray, tol: float = RANK_TOL) -> list[int]:
    """In-order greedy rank-revealing column selection.

    Keeps column j iff its residual against the span of the columns kept so
    far exceeds tol times the largest column norm.  Equivalent in rank to a
    pivoted QR, but order preserving, which is what gives the basis prefix
    property.
    """
    norms = np.linalg.norm(A, axis=0)
    scale = float(np.max(norms)) if A.size else 0.0
    if scale == 0.0:
        return []
    Q = np.zeros((A.shape[0], 0), dtype=complex)
    keep = []
    for j in range(A.shape[1]):
        c = A[:, j].astype(complex)
        # two passes of classical Gram-Schmidt for stability
        for _ in range(2):
            c = c - Q @ (Q.conj().T @ c)
        nrm = np.linalg.norm(c)
        if nrm > tol * scale:
            keep.append(j)
            Q = np.hstack([Q, (c / nrm).reshape(-1, 1)])
    return keep


@dataclass(frozen=True)
class FunctionBasis:
    """Numerically independent basis of V_level, with its evaluation inner
    product and Gram matrix."""

    level: int
    exprs: tuple[Expr, ...]
    ip: EvalInnerProduct
    gram: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.exprs)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "dim": self.dim,
            "exprs": [ex.to_str(b) for b in self.exprs],
            "gram": matrix_to_json(self.gram),
        }


def build_basis(R: SubexprSet, level: int, seed=0, per_size: int = 3,
                max_size: int = 6, trial_budget: int = 200,
                tol: float = RANK_TOL, d: int | None = None,
                compute_gram: bool = True) -> FunctionBasis:
    """Extract a basis of V_level = span of words of length <= level over R.

    Sample sizes grow until the numerical rank is unchanged across two
    consecutive size increments.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    rng = np.random.default_rng(seed)
    words = _words(R, level)
    samples = sample_points(R, [1], rng, per_size=per_size,
                            trial_budget=trial_budget, d=d)
    A = _eval_matrix(words, samples)
    keep = _greedy_select(A, tol)
    stable = 0
    n = 2
    while stable < 2 and n <= max_size:
        samples += sample_points(R, [n], rng, per_size=per_size,
                                 trial_budget=trial_budget, d=d)
        A = _eval_matrix(words, samples)
        new_keep = _greedy_select(A, tol)
        stable = stable + 1 if len(new_keep) == len(keep) else 0
        keep = new_keep
        n += 1
    ip = EvalInnerProduct(tuple(samples), default_weights(samples))
    basis = tuple(words[j][0] for j in keep)
    N = len(basis)
    if not compute_gram:
        return FunctionBasis(level, basis, ip, np.zeros((0, 0)))
    gram = np.zeros((N, N), dtype=complex)
    for i in range(N):
        for j in range(i, N):
            gram[i, j] = inner_product(basis[j], basis[i], ip)
            gram[j, i] = np.conj(gram[i, j])
    # positivity is scale-free: check the correlation-normalized Gram, which
    # sidesteps the huge dynamic range of the series weights
    dscale = 1.0 / np.sqrt(np.abs(np.diag(gram)))
    w, _ = hermitian_eig(gram * np.outer(dscale, dscale))
    if w[0] <= N * np.finfo(float).eps:
        raise SamplingError(None, samples[-1].rows, trial_budget)
    return FunctionBasis(level, basis, ip, gram)
