"""Extending rectangular pencil evaluations to invertible square ones, and
hermitian/non-hermitian completion of matrix tuples into expression domains.

The explicit ampliation construction behind the existence proofs is replaced
by generic Gaussian sampling with growing completion size: the solution set is
Zariski-open and nonempty at the size bound, so sampling succeeds with
probability 1 (and in practice at much smaller sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import Expr
from .numkernel import (
    RANK_TOL,
    MatrixTuple,
    NotPositiveDefiniteError,
    cholesky,
    full_rank,
    lu_solve,
    matrix_to_json,
    random_tuple,
)
from .pencil import HomogeneousPencil, is_full, rank_conditions, rect_eval
from .realization import build_realization, in_domain

__all__ = [
    "HypothesisError",
    "BoundExhaustedError",
    "SideExtension",
    "SquareExtension",
    "HermitianExtension",
    "remark_bound",
    "side_bound",
    "extend_side",
    "extend_square",
    "extend_hermitian",
    "extend_nonhermitian",
    "eps_assembly",
]


class HypothesisError(ValueError):
    """The input violates a hypothesis of the extension theorem."""


class BoundExhaustedError(RuntimeError):
    """No invertible completion found up to the size bound.

    Indicates numerical trouble rather than mathematical impossibility; the
    sigma_min values of all failed attempts are attached.
    """

    def __init__(self, sigma_mins: list[float]):
        super().__init__(
            f"completion search exhausted after {len(sigma_mins)} attempts; "
            f"best sigma_min {max(sigma_mins, default=0.0):.3e}"
        )
        self.sigma_mins = sigma_mins


def remark_bound(e: int, ell: int, m: int) -> int:
    """Size bound n = 2(e^3 m^2 + e m(2 e l - 1) + l(e l - 2)), clamped below at m.

    The formula can be non-positive for tiny parameters where the theorem's
    regime degenerates; the theorem itself requires n >= m.
    """
    if e < 0 or ell < 0 or m < 0:
        raise ValueError("arguments must be nonnegative")
    n = 2 * (e**3 * m**2 + e * m * (2 * e * ell - 1) + ell * (e * ell - 2))
    return max(n, m)


def side_bound(e: int, ell: int, m: int) -> int:
    """Completion size guaranteed to work for the one-sided extension."""
    n1 = (m - ell) * (e - 1)
    e1 = (m + n1) * e
    return max((e1 - 2) * m + n1 * (e1 - 1), m - ell, 1)


def _grow_schedule(start: int, step: int, bound: int) -> list[int]:
    out = []
    n = max(start, 1)
    while n < bound:
        out.append(n)
        n = 2 * n + max(step, 1)
    out.append(bound)
    return out


def _search(sizes, trials: int, attempt):
    """The completion search: `trials` calls of attempt(n, log) at each size
    in turn, returning the first result that is not None.  Each attempt
    appends the sigma_min of its failed tests to log, which a
    BoundExhaustedError carries when every attempt fails."""
    log: list[float] = []
    for n in sizes:
        for _ in range(trials):
            out = attempt(n, log)
            if out is not None:
                return out
    raise BoundExhaustedError(log)


@dataclass(frozen=True)
class SideExtension:
    """Completion [[X, Xhat], [0, Xcheck]] with invertible pencil evaluation."""

    Xhat: MatrixTuple
    Xcheck: MatrixTuple
    n: int
    sigma_min: float

    def completed(self, X: MatrixTuple) -> MatrixTuple:
        return MatrixTuple(tuple(
            np.vstack([np.hstack([X[j], self.Xhat[j]]),
                       np.hstack([np.zeros((self.n, X.cols)), self.Xcheck[j]])])
            for j in range(X.d)))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "sigma_min": self.sigma_min,
            "Xhat": self.Xhat.to_json(),
            "Xcheck": self.Xcheck.to_json(),
        }


def extend_side(L: HomogeneousPencil, X: MatrixTuple, seed=0,
                trials: int = 16, tol: float = RANK_TOL,
                forced_n: int | None = None) -> SideExtension:
    """Complete a full-column-rank rectangular evaluation to an invertible
    square one by sampling [[X, Xhat], [0, Xcheck]] at growing sizes."""
    m, ell = X.rows, X.cols
    if ell > m:
        raise HypothesisError("X must have at least as many rows as columns")
    full = is_full(L, seed=_derive(seed, 101), tol=tol)
    if full.verdict != "full":
        raise HypothesisError(f"pencil is {full.verdict}")
    if not full_rank(rect_eval(L, X), tol)[0]:  # tall, as ell <= m
        raise HypothesisError("pencil evaluation at X is column-rank deficient")

    rng = np.random.default_rng(_derive(seed, 1))
    if forced_n is not None:
        sizes = [forced_n]
    elif m == ell:
        sizes = [0]
    else:
        sizes = _grow_schedule(m - ell, L.size, side_bound(L.size, ell, m))
    if sizes == [0]:
        trials = 1  # nothing random at n = 0

    def attempt(n, log):
        w = n + m - ell
        cand = SideExtension(random_tuple(X.d, m, w, rng=rng),
                             random_tuple(X.d, n, w, rng=rng), n, 0.0)
        ok, smin = full_rank(rect_eval(L, cand.completed(X)), tol)
        log.append(smin)
        return SideExtension(cand.Xhat, cand.Xcheck, n, smin) if ok else None

    return _search(sizes, trials, attempt)


@dataclass(frozen=True)
class SquareExtension:
    """Invertible evaluation at [[Y, [Y'' 0]], [[Y'; 0], Z]] with Z n x n."""

    n: int
    Z: MatrixTuple
    sigma_min: float
    bound_used: int
    parts: dict = field(default_factory=dict, compare=False, repr=False)

    def completed(self, Y: MatrixTuple, Yp: MatrixTuple, Ypp: MatrixTuple) -> MatrixTuple:
        return _theorem_tuple(Y, Yp, Ypp, self.Z)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "sigma_min": self.sigma_min,
            "bound_used": self.bound_used,
            "Z": self.Z.to_json(),
        }


def _theorem_tuple(Y: MatrixTuple, Yp: MatrixTuple, Ypp: MatrixTuple,
                   Z: MatrixTuple) -> MatrixTuple:
    ell, m, n = Y.rows, Yp.rows, Z.rows
    mats = []
    for j in range(Y.d):
        top = np.hstack([Y[j], Ypp[j], np.zeros((ell, n - m))])
        bot = np.hstack([np.vstack([Yp[j], np.zeros((n - m, ell))]), Z[j]])
        mats.append(np.vstack([top, bot]))
    return MatrixTuple(tuple(mats))


def eps_assembly(Y: MatrixTuple, Yp: MatrixTuple, Ypp: MatrixTuple,
                 parts: dict, eps: float) -> MatrixTuple:
    """The epsilon-scaled 5x5 block tuple from the square-extension proof;
    invertible for one eps != 0 implies invertible for every eps != 0."""
    Ap, Bp, Cp = parts["Ap"], parts["Bp"], parts["Cp"]
    App, Bpp, Cpp = parts["App"], parts["Bpp"], parts["Cpp"]
    ell, m = Y.rows, Yp.rows
    w1, k1 = Ap.cols, Cp.rows
    w2, k2 = App.rows, Cpp.cols
    z = np.zeros
    return MatrixTuple(tuple(np.block([
        [Y[j], z((ell, w1)), eps * Y[j], eps * Ypp[j], z((ell, k2))],
        [z((w2, ell)), z((w2, w1)), eps * App[j], eps * Bpp[j], eps * Cpp[j]],
        [eps * Y[j], eps * Ap[j], z((ell, ell)), z((ell, m)), z((ell, k2))],
        [eps * Yp[j], eps * Bp[j], z((m, ell)), z((m, m)), z((m, k2))],
        [z((k1, ell)), eps * Cp[j], z((k1, ell)), z((k1, m)), z((k1, k2))],
    ]) for j in range(Y.d)))


def _mat5_tuple(Y: MatrixTuple, Yp: MatrixTuple, Ypp: MatrixTuple, parts: dict) -> MatrixTuple:
    Ap, Bp, Cp = parts["Ap"], parts["Bp"], parts["Cp"]
    App, Bpp, Cpp = parts["App"], parts["Bpp"], parts["Cpp"]
    ell, m = Y.rows, Yp.rows
    w1, k1 = Ap.cols, Cp.rows
    w2, k2 = App.rows, Cpp.cols
    z = np.zeros
    return MatrixTuple(tuple(np.block([
        [Y[j], Ypp[j], z((ell, ell)), z((ell, w1)), z((ell, k2))],
        [Yp[j], z((m, m)), -Yp[j], Bp[j], z((m, k2))],
        [z((ell, ell)), -Ypp[j], -Y[j], Ap[j], z((ell, k2))],
        [z((w2, ell)), Bpp[j], App[j], z((w2, w1)), Cpp[j]],
        [z((k1, ell)), z((k1, m)), z((k1, ell)), Cp[j], z((k1, k2))],
    ]) for j in range(Y.d)))


def extend_square(L: HomogeneousPencil, Y: MatrixTuple, Yp: MatrixTuple,
                  Ypp: MatrixTuple, mode: str = "sampling", seed=0,
                  trials: int = 16, tol: float = RANK_TOL) -> SquareExtension:
    """Complete (Y, Y', Y'') satisfying the rank conditions to an invertible
    square pencil evaluation.

    mode="sampling": generic Z at growing size n >= m.
    mode="blocks": two one-sided completions assembled into the 5x5 block
    pattern of the constructive proof (eps = 1), n = 2(m+k).
    """
    ell, m = Y.rows, Yp.rows
    col_ok, row_ok, _ = rank_conditions(L, Y, Yp, Ypp, tol)
    if not (col_ok and row_ok):
        raise HypothesisError("rank conditions fail for (Y, Y', Y'')")
    bound = remark_bound(L.size, ell, m)
    rng = np.random.default_rng(_derive(seed, 2))

    if mode == "sampling":
        def attempt(n, log):
            Z = random_tuple(Y.d, n, n, rng=rng)
            ok, smin = full_rank(rect_eval(L, _theorem_tuple(Y, Yp, Ypp, Z)), tol)
            log.append(smin)
            return SquareExtension(n, Z, smin, bound) if ok else None

        return _search(_grow_schedule(max(m, 1), L.size, bound), trials, attempt)

    if mode != "blocks":
        raise ValueError(f"unknown mode {mode!r}")

    # column instance [Y; Y'] and row instance [Y  Y''] (via the transpose)
    col_inst = MatrixTuple(tuple(np.vstack([Y[j], Yp[j]]) for j in range(Y.d)))
    row_inst_T = MatrixTuple(tuple(np.hstack([Y[j], Ypp[j]]).T for j in range(Y.d)))
    side_c = extend_side(L, col_inst, seed=_derive(seed, 3), trials=trials, tol=tol)
    side_r = extend_side(L.transpose(), row_inst_T, seed=_derive(seed, 4), trials=trials, tol=tol)
    k = max(side_c.n, side_r.n, 1)
    if side_c.n != k:
        side_c = extend_side(L, col_inst, seed=_derive(seed, 5), trials=2 * trials,
                             tol=tol, forced_n=k)
    if side_r.n != k:
        side_r = extend_side(L.transpose(), row_inst_T, seed=_derive(seed, 6),
                             trials=2 * trials, tol=tol, forced_n=k)

    What = [w.T for w in side_r.Xhat]  # (k+m) x (ell+m), from the transposed row instance
    parts = {
        "Ap": MatrixTuple(tuple(x[:ell] for x in side_c.Xhat)),
        "Bp": MatrixTuple(tuple(x[ell:] for x in side_c.Xhat)),
        "Cp": side_c.Xcheck,
        "App": MatrixTuple(tuple(w[:, :ell] for w in What)),
        "Bpp": MatrixTuple(tuple(w[:, ell:] for w in What)),
        "Cpp": MatrixTuple(tuple(w.T for w in side_r.Xcheck)),
    }
    T5 = _mat5_tuple(Y, Yp, Ypp, parts)
    ok, smin = full_rank(rect_eval(L, T5), tol)
    if not ok:
        raise BoundExhaustedError([smin])
    Z = MatrixTuple(tuple(t[ell:, ell:] for t in T5))
    return SquareExtension(T5.rows - ell, Z, smin, bound, parts=parts)


# ---------------------------------------------------------------------------
# domain extensions for expressions

@dataclass(frozen=True)
class HermitianExtension:
    E: np.ndarray
    Z: MatrixTuple
    Xtilde: MatrixTuple
    sigma_min: float

    def to_json(self) -> dict:
        return {
            "E": matrix_to_json(self.E),
            "Z": self.Z.to_json(),
            "Xtilde": self.Xtilde.to_json(),
            "sigma_min": self.sigma_min,
        }


def extend_hermitian(r: Expr, X: MatrixTuple, Y: MatrixTuple | None, seed=0,
                     trials: int = 16, tol: float = RANK_TOL,
                     d: int | None = None) -> HermitianExtension:
    """Extend a hermitian tuple X, reachable through the rectangular block Y,
    to a hermitian tuple in the hermitian domain of r.

    The output keeps the X block exactly and places E[Y; 0] below it.
    """
    if not X.hermitian:
        raise HypothesisError("X must be hermitian")
    if d is None:
        d = X.d
    rep = build_realization(r, d)
    ell = X.rows
    m = Y.rows if Y is not None and Y.d else 0

    if m == 0:
        ok, smin = in_domain(r, X, d=d, tol=tol, rep=rep)
        if not ok:
            raise HypothesisError("X itself is outside the domain and no Y block was given")
        empty = MatrixTuple(tuple(np.zeros((0, 0)) for _ in range(d)), hermitian=True)
        return HermitianExtension(np.zeros((0, 0), dtype=complex), empty, X, smin)

    # full rank of the realization pencil at [(I, X); (0, Y)] and [(I, X)  (0, Y*)]
    col_ok, row_ok, _ = rank_conditions(
        rep.pencil, MatrixTuple((np.eye(ell),) + X.matrices),
        MatrixTuple((np.zeros((m, ell)),) + Y.matrices),
        MatrixTuple((np.zeros((ell, m)),) + Y.adjoint().matrices), tol)
    if not (col_ok and row_ok):
        raise HypothesisError("realization pencil rank conditions fail at (X, Y)")
    rng = np.random.default_rng(_derive(seed, 7))

    def embed(Xj, B, Zj):  # [[Xj, B*], [B, Zj]]
        return np.vstack([np.hstack([Xj, B.conj().T]), np.hstack([B, Zj])])

    def attempt(n, log):
        Z0 = np.eye(n) + 0.25 * random_tuple(1, n, n, mode="hermitian", rng=rng)[0]
        try:
            C = cholesky(Z0)
        except NotPositiveDefiniteError:
            return None
        Zp = [random_tuple(1, n, n, mode="hermitian", rng=rng)[0] for _ in range(d)]
        Yn = [np.vstack([Y[j], np.zeros((n - m, ell))]) for j in range(d)]
        T = MatrixTuple((embed(np.eye(ell), np.zeros((n, ell)), Z0),)
                        + tuple(embed(X[j], Yn[j], Zp[j]) for j in range(d)))
        ok, smin = full_rank(rect_eval(rep.pencil, T), tol)
        log.append(smin)
        if not ok:
            return None
        E = lu_solve(C, np.eye(n))
        Zmats = tuple(E @ Zj @ E.conj().T for Zj in Zp)
        Xtilde = MatrixTuple(tuple(embed(X[j], E @ Yn[j], (Zmats[j] + Zmats[j].conj().T) / 2)
                                   for j in range(d)), hermitian=True)
        ok, smin_dom = in_domain(r, Xtilde, d=d, tol=tol, rep=rep)
        if ok:
            return HermitianExtension(E, MatrixTuple(Zmats, hermitian=True), Xtilde, smin_dom)
        log.append(smin_dom)
        return None

    return _search(_grow_schedule(max(m, 1), rep.size, remark_bound(rep.size, ell, m)),
                   trials, attempt)


def extend_nonhermitian(r: Expr, X: MatrixTuple, seed=0, trials: int = 16,
                        tol: float = RANK_TOL, d: int | None = None) -> MatrixTuple:
    """Complete a rectangular m x l tuple (l <= m) to a square tuple in dom r
    by sampling the trailing n x (n-l) block."""
    m, ell = X.rows, X.cols
    if ell > m:
        raise HypothesisError("X must have at least as many rows as columns")
    if d is None:
        d = X.d
    rep = build_realization(r, d)
    stacked = MatrixTuple((np.eye(m, ell),) + X.matrices)
    if not full_rank(rect_eval(rep.pencil, stacked), tol)[0]:  # tall, as ell <= m
        raise HypothesisError("stacked pencil evaluation is column-rank deficient")
    rng = np.random.default_rng(_derive(seed, 8))

    def attempt(n, log):
        Z = random_tuple(d, n, n - ell, rng=rng)
        cand = MatrixTuple(tuple(np.hstack([np.vstack([X[j], np.zeros((n - m, ell))]), Z[j]])
                                 for j in range(d)))
        ok, smin = in_domain(r, cand, d=d, tol=tol, rep=rep)
        log.append(smin)
        return cand if ok else None

    return _search(_grow_schedule(max(m, 1), rep.size, remark_bound(rep.size, ell, m)),
                   trials, attempt)


def _derive(seed, salt: int) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(entropy=seed.entropy,
                                      spawn_key=tuple(seed.spawn_key) + (salt,))
    if seed is None:
        seed = 0
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(salt,))
