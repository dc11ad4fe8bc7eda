"""Truncated GNS machinery: subexpression sets, product spaces, and the
extraction of a numerically independent function basis.

The span V_l of products of at most l subexpressions of r and r* is probed by
evaluating every candidate word at hermitian sample tuples of growing size.
A greedy rank-revealing sweep over the vectorized evaluations picks a maximal
independent subset; by the local-global linear dependence principle this is a
basis of V_l with probability 1.

Each admitted sample carries an evaluation table: the values of R there, which
admission computes anyway, and the values of words as prefix products of them.
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
    "SingularGramError",
    "EvalTable",
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


class SingularGramError(RuntimeError):
    """The Gram matrix of the selected basis is numerically singular: the rank
    tolerance let dependent words into the basis."""

    def __init__(self, dim: int, eig_min: float):
        super().__init__(
            f"singular Gram matrix of the {dim}-element basis (smallest "
            f"correlation-normalized eigenvalue {eig_min:.3e})"
        )
        self.dim = dim
        self.eig_min = eig_min


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

    out = {ex.scalar(1): None}
    for root in (r, ex.involution(r)):
        for q in ex.subexpressions(root):
            q = strip(q)
            if q.kind != ex.SCALAR:
                out.setdefault(q)
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


def _pairing(avals, bvals, ip: EvalInnerProduct) -> complex:
    """phi(s2* s1) from the values of s1 (avals) and s2 (bvals) at the samples."""
    total = 0.0 + 0.0j
    for a, b, X, w in zip(avals, bvals, ip.samples, ip.weights):
        total += w * np.trace(b.conj().T @ a) / X.rows
    return complex(total)


def inner_product(s1: Expr, s2: Expr, ip: EvalInnerProduct) -> complex:
    return _pairing([eval_expr(s1, X) for X in ip.samples],
                    [eval_expr(s2, X) for X in ip.samples], ip)


class EvalTable:
    """Values at one sample X of the elements of R and of the words over R.

    A word is keyed by its index tuple into R (see `_words`): () is R[0] = 1,
    (j,) is R[j], and a longer idx is the product of word idx[:-1] and
    R[idx[-1]], filled on first use.  That is the product, in the same order,
    that the tree evaluator computes for ex.mul(word, R[j]), so every value is
    bit-for-bit eval_expr of the word.
    """

    def __init__(self, X: MatrixTuple, rvals: tuple[np.ndarray, ...]):
        self.X = X
        self.rvals = rvals
        self._words: dict[tuple[int, ...], np.ndarray] = {}

    @classmethod
    def of(cls, R: SubexprSet, X: MatrixTuple) -> "EvalTable":
        """The table at a sample where every element of R is defined."""
        return cls(X, tuple(eval_expr(q, X) for q in R.exprs))

    def word(self, idx: tuple[int, ...]) -> np.ndarray:
        if len(idx) <= 1:
            return self.rvals[idx[0] if idx else 0]
        val = self._words.get(idx)
        if val is None:
            val = self.word(idx[:-1]) @ self.rvals[idx[-1]]
            self._words[idx] = val
        return val

    def forget_words(self) -> None:
        """Drop the stored word values; the R values stay, and a later lookup
        fills the words it needs again."""
        self._words.clear()


def _admits(R: SubexprSet, X: MatrixTuple, cap: float = NORM_CAP):
    """(table, None) when all elements of R are defined at X with norms under
    the cap; (None, blocking subexpression) if not."""
    vals = []
    for q in R.exprs:
        try:
            val = eval_expr(q, X)
        except DomainError as err:
            return None, err.subexpr
        if norm_max(val) > cap:
            return None, q
        vals.append(val)
    return EvalTable(X, tuple(vals)), None


def sample_points(R: SubexprSet, sizes, rng, per_size: int = 3,
                  trial_budget: int = 200, d: int | None = None) -> list[EvalTable]:
    """Hermitian tuples of the given sizes in the common domain of R, found by
    rejection sampling, each with its evaluation table."""
    if d is None:
        d = max(R.d, 1)
    out = []
    for n in sizes:
        got = 0
        blocking = None
        for _ in range(trial_budget):
            X = random_tuple(d, n, n, mode="hermitian", rng=rng)
            table, blk = _admits(R, X)
            if table is not None:
                out.append(table)
                got += 1
                if got == per_size:
                    break
            else:
                blocking = blk
        if got == 0:
            raise SamplingError(blocking, n, trial_budget)
    return out


def _words(R: SubexprSet, level: int):
    """All products of at most `level` elements of R, structurally deduped,
    each with its index tuple into R.

    Words are yielded by increasing length so that a basis extracted by an
    in-order sweep at level l is a prefix of the one at level l+1.  The
    prefix idx[:-1] of every word is itself a word.
    """
    one = R.exprs[0]
    seen = {one}
    words = [(one, ())]
    frontier = [((), one)]
    for _ in range(level):
        nxt = []
        for idx, w in frontier:
            for j in range(1, len(R.exprs)):
                prod = ex.mul(w, R.exprs[j]) if idx else R.exprs[j]
                if prod in seen:
                    continue
                seen.add(prod)
                words.append((prod, idx + (j,)))
                nxt.append((idx + (j,), prod))
        frontier = nxt
    return words


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
    product and Gram matrix.  indices[k] is the index tuple of exprs[k] over
    the R it was built from, for lookups in that R's evaluation tables."""

    level: int
    exprs: tuple[Expr, ...]
    indices: tuple[tuple[int, ...], ...]
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
    tables = []
    M = None  # row k: the values of word k at all samples so far, raveled

    def add_size(n: int) -> list[int]:
        nonlocal M
        new = sample_points(R, [n], rng, per_size=per_size,
                            trial_budget=trial_budget, d=d)
        parts = [] if M is None else [M]
        for t in new:
            parts.append(np.array([t.word(idx).ravel() for _, idx in words]))
            # M holds them now; the Gram needs only the basis words
            t.forget_words()
        tables.extend(new)
        M = np.hstack(parts)
        return _greedy_select(M.T, tol)

    keep = add_size(1)
    stable = 0
    n = 2
    while stable < 2 and n <= max_size:
        new_keep = add_size(n)
        stable = stable + 1 if len(new_keep) == len(keep) else 0
        keep = new_keep
        n += 1
    samples = tuple(t.X for t in tables)
    ip = EvalInnerProduct(samples, default_weights(samples))
    basis = tuple(words[j][0] for j in keep)
    indices = tuple(words[j][1] for j in keep)
    N = len(basis)
    if not compute_gram:
        return FunctionBasis(level, basis, indices, ip, np.zeros((0, 0)))
    vals = [[t.word(idx) for t in tables] for idx in indices]
    gram = np.zeros((N, N), dtype=complex)
    for i in range(N):
        for j in range(i, N):
            gram[i, j] = _pairing(vals[j], vals[i], ip)
            gram[j, i] = np.conj(gram[i, j])
    # positivity is scale-free: check the correlation-normalized Gram, which
    # sidesteps the huge dynamic range of the series weights
    dscale = 1.0 / np.sqrt(np.abs(np.diag(gram)))
    w, _ = hermitian_eig(gram * np.outer(dscale, dscale))
    if w[0] <= N * np.finfo(float).eps:
        raise SingularGramError(N, float(w[0]))
    return FunctionBasis(level, basis, indices, ip, gram)
