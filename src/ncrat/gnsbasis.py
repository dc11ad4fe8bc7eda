"""Truncated GNS machinery: subexpression sets, product spaces, and the
extraction of a numerically independent function basis.

The span V_l of products of at most l subexpressions of r and r* is probed
at hermitian sample tuples of growing size, drawn once each from one stream.
A greedy rank-revealing sweep grows V_1, V_2, ..., V_l level by level: the
candidates for V_{k+1} are the kept words of length k times each element of
R, which together with V_k span V_{k+1}.  By the local-global linear
dependence principle the kept words are a basis of V_l with probability 1.

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
from .realization import DomainError, eval_expr, eval_exprs

__all__ = [
    "SubexprSet",
    "EvalInnerProduct",
    "FunctionBasis",
    "SamplingError",
    "SingularGramError",
    "EvalTable",
    "SampleStream",
    "build_R",
    "independent_words",
    "build_basis",
    "sample_points",
    "inner_product",
]

NORM_CAP = 1e6
PER_SIZE = 3  # sample tuples drawn per size
MAX_SIZE = 6  # largest sample size drawn


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

    A word is keyed by its index tuple into R: () is R[0] = 1, (j,) is R[j],
    and a longer idx is the product of word idx[:-1] and R[idx[-1]], filled
    on first use.  That is the product, in the same order, that the tree
    evaluator computes for ex.mul(word, R[j]), so every value is bit-for-bit
    eval_expr of the word.
    """

    def __init__(self, X: MatrixTuple, rvals: tuple[np.ndarray, ...]):
        self.X = X
        self.rvals = rvals
        self._words: dict[tuple[int, ...], np.ndarray] = {}

    def word(self, idx: tuple[int, ...]) -> np.ndarray:
        if len(idx) <= 1:
            return self.rvals[idx[0] if idx else 0]
        val = self._words.get(idx)
        if val is None:
            val = self.word(idx[:-1]) @ self.rvals[idx[-1]]
            self._words[idx] = val
        return val


def _admits(R: SubexprSet, X: MatrixTuple, cap: float = NORM_CAP):
    """(table, None) when all elements of R are defined at X with norms under
    the cap; (None, blocking subexpression) if not.  R is evaluated in one
    memoised pass, so shared subexpressions are computed once."""
    try:
        vals = eval_exprs(R.exprs, X)
    except DomainError as err:
        return None, err.subexpr
    for q, val in zip(R.exprs, vals):
        if norm_max(val) > cap:
            return None, q
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


class SampleStream:
    """Hermitian sample tuples in the common domain of R, PER_SIZE of each size
    1, 2, ..., with their evaluation tables.  Each size is drawn once, on
    first demand, from one generator, so every reader of the stream sees the
    same tuples."""

    def __init__(self, R: SubexprSet, seed=0, d: int | None = None):
        self.R = R
        self.d = d
        self.rng = np.random.default_rng(seed)
        self.sizes: list[list[EvalTable]] = []  # sizes[n - 1]: those of size n

    def upto(self, n: int) -> list[EvalTable]:
        """The tables of sizes 1..n."""
        while len(self.sizes) < n:
            self.sizes.append(sample_points(self.R, [len(self.sizes) + 1], self.rng,
                                            per_size=PER_SIZE, d=self.d))
        return [t for size in self.sizes[:n] for t in size]


def _sweep(R: SubexprSet, level: int, tables, tol: float):
    """(word, index tuple) pairs of an independent subset of V_level, from an
    in-order greedy sweep over the words' values at the tables' samples.

    The candidates are 1, then the elements of R, then for each length k the
    kept words of length k times each R[j], deduped by node.  A candidate is
    kept iff its residual against the kept words exceeds tol times the
    largest norm of the candidates formed so far, its own length's included.
    The order (by length, then prefix, then j) gives the basis prefix
    property, and the prefix idx[:-1] of every kept word is kept.
    """
    one = R.exprs[0]
    seen = {one}
    kept = []
    Q = np.zeros((sum(t.X.rows ** 2 for t in tables), 0), dtype=complex)
    scale = 0.0
    frontier = [(one, ())]
    for length in range(level + 1):
        if not frontier:
            break
        C = np.array([np.concatenate([t.word(idx).ravel() for t in tables])
                      for _, idx in frontier], dtype=complex)
        scale = max(scale, float(np.max(np.linalg.norm(C, axis=1))))
        start = len(kept)
        for (w, idx), c in zip(frontier, C):
            # two passes of classical Gram-Schmidt for stability
            for _ in range(2):
                c = c - Q @ (Q.conj().T @ c)
            nrm = np.linalg.norm(c)
            if nrm > tol * scale:
                kept.append((w, idx))
                Q = np.hstack([Q, (c / nrm).reshape(-1, 1)])
        frontier = []
        for w, idx in kept[start:] if length < level else ():
            for j in range(1, len(R.exprs)):
                prod = ex.mul(w, R.exprs[j]) if idx else R.exprs[j]
                if prod not in seen:
                    seen.add(prod)
                    frontier.append((prod, idx + (j,)))
    return kept


def independent_words(stream: SampleStream, level: int, tol: float = RANK_TOL):
    """The (word, index tuple) pairs the sweep keeps for V_level and the tables
    it stopped at: sample sizes grow until the number kept is unchanged across
    two consecutive size increments, or MAX_SIZE is reached."""
    kept = _sweep(stream.R, level, stream.upto(1), tol)
    stable, n = 0, 1
    while stable < 2 and n < MAX_SIZE:
        n += 1
        new = _sweep(stream.R, level, stream.upto(n), tol)
        stable = stable + 1 if len(new) == len(kept) else 0
        kept = new
    return kept, stream.upto(n)


@dataclass(frozen=True)
class FunctionBasis:
    """Numerically independent basis of V_level, with its evaluation inner
    product, Gram matrix and the evaluation tables of its samples.
    indices[k] is the index tuple of exprs[k] over the R it was built from,
    for lookups in the tables."""

    level: int
    exprs: tuple[Expr, ...]
    indices: tuple[tuple[int, ...], ...]
    ip: EvalInnerProduct
    gram: np.ndarray
    tables: tuple[EvalTable, ...]

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


def build_basis(R: SubexprSet, level: int, seed=0, tol: float = RANK_TOL,
                d: int | None = None,
                stream: SampleStream | None = None) -> FunctionBasis:
    """Extract a basis of V_level = span of words of length <= level over R.

    The samples come from `stream`, by default a new SampleStream over R
    from seed and d.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if stream is None:
        stream = SampleStream(R, seed, d)
    kept, tables = independent_words(stream, level, tol)
    samples = tuple(t.X for t in tables)
    ip = EvalInnerProduct(samples, default_weights(samples))
    basis = tuple(w for w, _ in kept)
    indices = tuple(idx for _, idx in kept)
    N = len(basis)
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
    return FunctionBasis(level, basis, indices, ip, gram, tuple(tables))
