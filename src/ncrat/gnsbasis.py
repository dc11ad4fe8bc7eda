"""Truncated GNS machinery: subexpression sets, product spaces, and the
extraction of a numerically independent function basis.

The span V_l of products of at most l subexpressions of r and r* is probed
at hermitian sample tuples of growing size, drawn once each from one stream.
A greedy rank-revealing sweep grows V_1, V_2, ..., V_l level by level: the
candidates for V_{k+1} are the kept words of length k times each element of
R, which together with V_k span V_{k+1}.  By the local-global linear
dependence principle the kept words are a basis of V_l with probability 1.

Each admitted sample carries `eval_exprs`' memo there, filled with R at
admission and extended by every later evaluation: one evaluation per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "word_matrix",
    "build_basis",
    "sample_points",
    "inner_product",
]

NORM_CAP = 1e6
PER_SIZE = 3  # sample tuples drawn per size
MAX_SIZE = 6  # largest sample size drawn
TRIAL_BUDGET = 200  # random tuples tried per size before giving up


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
    deterministic order: 1 first, then `postorder(r, r*)`.
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
    for q in ex.postorder(r, ex.involution(r)):
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


@dataclass(eq=False)
class EvalTable:
    """A sample X admitted at singularity tolerance tol, and `eval_exprs`' memo
    there: the values of R, from admission, and of every node evaluated since."""

    X: MatrixTuple
    tol: float
    memo: dict = field(default_factory=dict)

    def values(self, exprs) -> list[np.ndarray]:
        return eval_exprs(exprs, self.X, self.tol, self.memo)


def word_matrix(words, tables) -> np.ndarray:
    """One row per word: its values at the tables' samples, raveled and
    concatenated."""
    return np.array([np.concatenate([v.ravel() for v in row])
                     for row in zip(*(t.values(words) for t in tables))])


def _admits(R: SubexprSet, X: MatrixTuple, tol: float):
    """(table, None) when all elements of R are defined at X with norms under
    NORM_CAP; (None, blocking subexpression) if not."""
    table = EvalTable(X, tol)
    try:
        vals = table.values(R.exprs)
    except DomainError as err:
        return None, err.subexpr
    for q, val in zip(R.exprs, vals):
        if norm_max(val) > NORM_CAP:
            return None, q
    return table, None


def sample_points(R: SubexprSet, sizes, rng, per_size: int = PER_SIZE,
                  d: int | None = None,
                  tol: float = RANK_TOL) -> list[EvalTable]:
    """Hermitian tuples of the given sizes in the common domain of R, found by
    rejection sampling, each with its evaluation table."""
    if d is None:
        d = max(R.d, 1)
    out = []
    for n in sizes:
        got = 0
        blocking = None
        for _ in range(TRIAL_BUDGET):
            X = random_tuple(d, n, n, mode="hermitian", rng=rng)
            table, blk = _admits(R, X, tol)
            if table is not None:
                out.append(table)
                got += 1
                if got == per_size:
                    break
            else:
                blocking = blk
        if got == 0:
            raise SamplingError(blocking, n, TRIAL_BUDGET)
    return out


class SampleStream:
    """Hermitian sample tuples in the common domain of R, PER_SIZE of each size
    1, 2, ..., with their evaluation tables.  Each size is drawn once, on
    first demand, from one generator, so every reader of the stream sees the
    same tuples."""

    def __init__(self, R: SubexprSet, seed=0, d: int | None = None,
                 tol: float = RANK_TOL):
        self.R = R
        self.d = d
        self.tol = tol
        self.rng = np.random.default_rng(seed)
        self.sizes: list[list[EvalTable]] = []  # sizes[n - 1]: those of size n

    def upto(self, n: int) -> list[EvalTable]:
        """The tables of sizes 1..n."""
        while len(self.sizes) < n:
            self.sizes.append(sample_points(self.R, [len(self.sizes) + 1], self.rng,
                                            per_size=PER_SIZE, d=self.d, tol=self.tol))
        return [t for size in self.sizes[:n] for t in size]


def _sweep(R: SubexprSet, level: int, tables, tol: float) -> list[Expr]:
    """The words of an independent subset of V_level, from an in-order greedy
    sweep over the words' values at the tables' samples.

    The candidates are 1, then the elements of R, then for each length k the
    kept words of length k times each R[j], deduped by node.  A candidate is
    kept iff its residual against the kept words exceeds tol times the
    largest norm of the candidates formed so far, its own length's included.
    The order (by length, then prefix, then j) gives the basis prefix
    property, and the left factor of every kept product is kept.
    """
    one = R.exprs[0]
    seen = {one}
    kept = []
    Q = np.zeros((sum(t.X.rows ** 2 for t in tables), 0), dtype=complex)
    scale = 0.0
    frontier = [one]
    for length in range(level + 1):
        if not frontier:
            break
        C = word_matrix(frontier, tables)
        scale = max(scale, float(np.max(np.linalg.norm(C, axis=1))))
        start = len(kept)
        for w, c in zip(frontier, C):
            # two passes of classical Gram-Schmidt for stability
            for _ in range(2):
                c = c - Q @ (Q.conj().T @ c)
            nrm = np.linalg.norm(c)
            if nrm > tol * scale:
                kept.append(w)
                Q = np.hstack([Q, (c / nrm).reshape(-1, 1)])
        frontier = []
        for w in kept[start:] if length < level else ():
            for q in R.exprs[1:]:
                prod = q if w is one else ex.mul(w, q)
                if prod not in seen:
                    seen.add(prod)
                    frontier.append(prod)
    return kept


def independent_words(stream: SampleStream, level: int, tol: float = RANK_TOL):
    """The words the sweep keeps for V_level and the tables it stopped at:
    sample sizes grow until the number kept is unchanged across two
    consecutive size increments, or MAX_SIZE is reached."""
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
    product, Gram matrix and the evaluation tables of its samples."""

    level: int
    exprs: tuple[Expr, ...]
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
    from seed, d and tol.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if stream is None:
        stream = SampleStream(R, seed, d, tol)
    kept, tables = independent_words(stream, level, tol)
    samples = tuple(t.X for t in tables)
    ip = EvalInnerProduct(samples, default_weights(samples))
    basis = tuple(kept)
    N = len(basis)
    vals = list(zip(*(t.values(basis) for t in tables)))
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
    return FunctionBasis(level, basis, ip, gram, tuple(tables))
