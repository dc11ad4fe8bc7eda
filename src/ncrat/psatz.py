"""Quadratic-module certification and eigenvalue optimization on free
spectrahedra.

A hermitian rational function r is certified nonnegative on the spectrahedron
of a monic hermitian pencil L(X) = I + sum_j H_j o X_j, passed as the pencil
(I, H_1..H_d), by finding PSD Gram matrices H (over a function basis w of
level l) and G (over C^e tensor w) with

    r = w* H w + sum over pencil entries of the G-localized part,

imposed as linear equalities of evaluations at hermitian sample tuples chosen
so the evaluation map is injective on the ambient product space V_{2l+1}.
Eigenvalue bounds replace r by mu - r (sup) or r - mu (inf) with mu a free
scalar SDP variable.

Certification, both bounds and build_sdp pose the problem along one path:
the equality rows are assembled as stacked coefficient arrays and pruned to
an independent set.  A result stands only if all rows hold at the kept rows'
solution and the held-out samples agree, both to RESIDUAL_TOL; one extractor
then factors H into squares and G into localized vectors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import expr as ex
from .expr import Expr
from .numkernel import (
    RANK_TOL,
    MatrixTuple,
    full_rank,
    hermitian_eig,
    is_hermitian,
    kron,
    matrix_to_json,
    norm_max,
    random_tuple,
)
from .pencil import HomogeneousPencil, affine_eval
from .realization import DomainError, eval_expr
from .gnsbasis import (
    PER_SIZE,
    EvalTable,
    FunctionBasis,
    SampleStream,
    SubexprSet,
    build_R,
    build_basis,
    independent_words,
    sample_points,
    word_matrix,
)
from .sdpcore import SDPConstraint, SDPProblem, solve

__all__ = [
    "QMCertificate",
    "OptResult",
    "certify_qm",
    "optimize_eig",
    "build_sdp",
    "find_violation",
    "check_identity",
]

EIG_TOL = 1e-7
RESIDUAL_TOL = 1e-6


def _pad_lmi(r: Expr, L: HomogeneousPencil | None, d: int | None):
    """The variable count d (inferred from r and L unless given) and the monic
    LMI (I, H1..Hk) padded with zero coefficients to d variables.  The LMI
    comes back as None when it is absent or trivial (1 x 1 with zero
    coefficients): then there is no localizing block."""
    if d is None:
        d = max(max(ex.variables_used(r), default=0),
                L.nvars - 1 if L is not None else 0, 1)
    if L is None or (L.size == 1 and all(np.all(H == 0) for H in L.coeffs[1:])):
        return d, None
    if L.nvars - 1 > d:
        raise ValueError(f"LMI has {L.nvars - 1} variables, the problem has {d}")
    zero = np.zeros_like(L.coeffs[0])
    return d, HomogeneousPencil(L.coeffs + (zero,) * (d + 1 - L.nvars))


@dataclass(frozen=True)
class QMCertificate:
    """Membership data for the level-l quadratic module of L."""

    basis: FunctionBasis
    H: np.ndarray
    G: np.ndarray | None
    squares: tuple[Expr, ...]
    vectors: tuple[tuple[Expr, ...], ...]
    residual: float
    level: int
    carath_bound: int

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "basis": [ex.to_str(b) for b in self.basis.exprs],
            "H": matrix_to_json(self.H),
            "G": matrix_to_json(self.G) if self.G is not None else None,
            "squares": [ex.to_str(s) for s in self.squares],
            "vectors": [[ex.to_str(c) for c in v] for v in self.vectors],
            "residual": self.residual,
            "caratheodory_bound": self.carath_bound,
        }


@dataclass(frozen=True)
class OptResult:
    mu: float
    status: str  # "optimal" | "infeasible-at-level" | "unbounded-at-level" | "solver-failure"
    certificate: QMCertificate | None
    level: int
    gap: float

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "status": self.status,
            "level": self.level,
            "gap": self.gap,
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


def _augment_R(r: Expr, d: int) -> SubexprSet:
    """R of r, extended with any pencil variables r does not mention."""
    exprs = dict.fromkeys(build_R(r).exprs)
    for j in range(1, d + 1):
        exprs.setdefault(ex.var(j))
    return SubexprSet(r, tuple(exprs))


def _check_hermitian_function(r: Expr, d: int, rng, tol: float) -> None:
    checked = 0
    for t in range(12):
        n = 1 + t % 3
        X = random_tuple(d, n, n, mode="hermitian", rng=rng)
        try:
            val = eval_expr(r, X, tol)
        except DomainError:
            continue
        checked += 1
        if not is_hermitian(val, 1e-8):
            raise ValueError("expression is not hermitian as a function")
    if checked == 0:
        raise ValueError("could not sample the domain to check hermitianness")


def _vech(A: np.ndarray) -> np.ndarray:
    """Isometric real coordinates, for the trace pairing, of each hermitian
    matrix in the stack A (k, n, n): one row per matrix."""
    iu = np.triu_indices(A.shape[-1], 1)
    U = A[:, iu[0], iu[1]]
    return np.concatenate([np.diagonal(A, axis1=1, axis2=2).real,
                           np.sqrt(2) * U.real, np.sqrt(2) * U.imag], axis=1)


def _lmi_blocks(L: HomogeneousPencil, X: MatrixTuple) -> list[list[np.ndarray]]:
    """L(X) as its e x e grid of n x n blocks: [i][j] is sum_k (H_k)_ij X_k."""
    n = X.rows
    LX = affine_eval(L, X)
    return [[LX[i * n:(i + 1) * n, j * n:(j + 1) * n] for j in range(L.size)]
            for i in range(L.size)]


def _split(T: np.ndarray) -> np.ndarray:
    """For each matrix T in the stack, the hermitian coefficient matrices of
    Re tr(H T^T) and Im tr(H T^T) over hermitian H, as consecutive rows."""
    Tt, Tc = T.swapaxes(1, 2), T.conj()
    return np.stack([(Tt + Tc) / 2, (Tt - Tc) / 2j], axis=1).reshape(-1, *T.shape[1:])


def _assemble_rows(basis: FunctionBasis, L: HomogeneousPencil | None, tables,
                   mu_sign: float | None, target: Expr):
    """Evaluation-equality rows: for each sample (given by its evaluation
    table) and matrix entry (s, t), tr(H A) + tr(G B) + mu_sign*mu*delta_st
    = target entry, split into a real and an imaginary row.

    Returns the stacks A (m, N, N) and B (m, Ne, Ne), or None when there is
    no LMI, the free-scalar columns (m, 0 or 1) and the right-hand sides."""
    hparts, gparts, rhs = [], [], []
    for table in tables:
        X = table.X
        n = X.rows
        *W, tgt = table.values(basis.exprs + (target,))
        cols = [np.array([Wa[:, s] for Wa in W]).T for s in range(n)]  # n x N each
        # T[s n + t][a, b] = (w_a* w_b)(X)[s, t]
        hparts.append(_split(np.array([Cs.conj().T @ Ct for Cs in cols for Ct in cols])))
        if L is not None:
            e = L.size
            blocks = _lmi_blocks(L, X)
            Q = np.empty((n * n, basis.dim * e, basis.dim * e), dtype=complex)
            for s, Cs in enumerate(cols):
                for i in range(e):
                    for j in range(e):
                        CsL = Cs.conj().T @ blocks[i][j]
                        for t, Ct in enumerate(cols):
                            Q[s * n + t, i::e, j::e] = CsL @ Ct
            gparts.append(_split(Q))
        rhs.append(np.stack([tgt.real, tgt.imag], axis=-1).ravel())
    rhs = np.concatenate(rhs)
    free = np.zeros((len(rhs), 0 if mu_sign is None else 1))
    if mu_sign is not None:  # mu_sign * delta_st on the real rows
        free[::2, 0] = mu_sign * np.concatenate([np.eye(t.X.rows).ravel() for t in tables])
    return (np.concatenate(hparts), np.concatenate(gparts) if gparts else None,
            free, rhs)


def _prune_rows(A: np.ndarray, B: np.ndarray | None, free: np.ndarray,
                rhs: np.ndarray, tol: float = RANK_TOL):
    """Keep the first k pivots of one pivoted QR, Rmat.T[:, piv] = Q R, of the
    equality rows, k counting |R_ii| > tol |R_00|.  Returns the kept indices and
    the violation of all rows, ||Rmat x - rhs|| / (1 + ||rhs||), by the kept
    rows' solution x = Q[:, :k] y, R[:k, :k].T y = rhs[piv[:k]]."""
    Rmat = np.concatenate([_vech(S) for S in (A, B) if S is not None] + [free], axis=1)
    Q, Rq, piv = scipy.linalg.qr(Rmat.T, pivoting=True, mode="economic")
    diag = np.abs(np.diag(Rq))
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    rank = int(np.sum(diag > tol * scale))
    y = scipy.linalg.solve_triangular(Rq[:rank, :rank].T, rhs[piv[:rank]], lower=True)
    resid = np.linalg.norm(Rmat @ (Q[:, :rank] @ y) - rhs) / (1 + np.linalg.norm(rhs))
    return sorted(piv[:rank]), resid


def _separates(words, tables, tol: float) -> bool:
    """Whether evaluation at the tables is injective on the span of the
    words: no fewer sample coordinates than words, and full column rank."""
    A = word_matrix(words, tables).T
    # column normalization: injectivity is scale-free, conditioning is not
    norms = np.linalg.norm(A, axis=0)
    norms[norms == 0] = 1.0
    return A.shape[0] >= A.shape[1] and full_rank(A / norms, tol)[0]


def _extract(M: np.ndarray, basis: FunctionBasis, e: int, tol: float):
    """Factor the Gram matrix M over C^e (x) w: for each eigenpair (lam, v)
    with lam above tol * max(largest eigenvalue, 1), largest first, the
    e-vector of expressions sum_a h[a, i] w_a, h = conj(sqrt(lam) v) as an
    N x e array, dropping the coefficients below 1e-9 max|h|.  The squares
    of H are the case e = 1."""
    w, V = hermitian_eig(M)
    floor = tol * max(*w[-1:], 1.0)
    out = []
    for lam, v in zip(w[::-1], V.T[::-1]):
        if lam <= floor:
            break
        h = np.conj(v * np.sqrt(lam)).reshape(-1, e)
        cut = 1e-9 * np.max(np.abs(h))
        out.append(tuple(
            functools.reduce(ex.add, (ex.mul(ex.scalar(c), b)
                                      for c, b in zip(h[:, i], basis.exprs)
                                      if abs(c) > cut), ex.scalar(0))
            for i in range(e)))
    return tuple(out)


def _reconstruct(basis: FunctionBasis, L: HomogeneousPencil | None, H, G,
                 table: EvalTable) -> np.ndarray:
    X = table.X
    n = X.rows
    W = table.values(basis.exprs)
    Wcat = np.vstack(W)  # (N n) x n
    out = Wcat.conj().T @ kron(H, np.eye(n)) @ Wcat
    if G is not None:
        e = L.size
        for i, row in enumerate(_lmi_blocks(L, X)):
            for j, Lij in enumerate(row):
                LW = np.vstack([Lij @ Wb for Wb in W])
                out += Wcat.conj().T @ kron(G[i::e, j::e], np.eye(n)) @ LW
    return out


def _validate(basis, L, H, G, target: Expr, R: SubexprSet, d: int, seed,
              tol: float) -> float:
    """Worst relative residual of the certificate at held-out samples, drawn
    from a stream independent of the one that chose the SDP samples."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=0xC0FFEE if seed is None else seed).spawn(2)[1])
    held = sample_points(R, [1, 2, 3], rng, per_size=PER_SIZE, d=d, tol=tol)
    worst = 0.0
    for table in held:
        want, = table.values((target,))
        got = _reconstruct(basis, L, H, G, table)
        worst = max(worst, norm_max(want - got) / (1 + norm_max(want)))
    return worst


def _setup(r: Expr, L: HomogeneousPencil | None, level: int, seed, d=None,
           tol: float = RANK_TOL):
    """The padded problem, R, the basis of V_level, the SDP's evaluation
    tables and the Caratheodory bound 1 + dim V_{2 level + 1}.  The tables
    must separate V_{2 level + 1}: the basis's own when they do, else those
    at which the V_{2 level + 1} sweep on the same stream stopped."""
    if level < 1:
        raise ValueError("level must be >= 1")
    d, L = _pad_lmi(r, L, d)
    _check_hermitian_function(
        r, d, np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]), tol)
    R = _augment_R(r, d)
    stream = SampleStream(R, seed, d, tol)
    basis = build_basis(R, level, tol=tol, stream=stream)
    words, big_tables = independent_words(stream, 2 * level + 1, tol)
    for tables in (basis.tables, big_tables):
        if _separates(words, tables, tol):
            return d, L, R, basis, tables, 1 + len(words)
    raise RuntimeError(
        f"sample set does not separate the level-{2 * level + 1} product "
        f"space (dim {len(words)})"
    )


def _objective(r: Expr, direction: str | None):
    """(target, mu_sign, obj_free) of the membership SDP: r itself for
    certification (direction None); for sup, mu - r in Q reads
    tr(H A) + tr(G B) - mu*delta = -r with mu minimized; for inf, r - mu in Q
    reads tr(H A) + tr(G B) + mu*delta = r with mu maximized."""
    if direction is None:
        return r, None, 0.0
    if direction == "sup":
        return ex.mul(ex.scalar(-1), r), -1.0, 1.0
    if direction == "inf":
        return r, 1.0, -1.0
    raise ValueError("direction must be None, 'sup' or 'inf'")


def _build_problem(basis, L, tables, target, mu_sign, obj_free, tol):
    """Assemble the membership SDP at the samples of the evaluation tables,
    on the rows _prune_rows keeps at tol; returns (problem, violation of all
    rows by the kept rows' solution).  L is the padded LMI or None."""
    A, B, free, rhs = _assemble_rows(basis, L, tables, mu_sign, target)
    keep, lin_resid = _prune_rows(A, B, free, rhs, tol)
    stacks = [S[keep] for S in (A, B) if S is not None]
    dims = tuple(S.shape[1] for S in stacks)
    nfree = free.shape[1]
    cons = tuple(SDPConstraint(tuple(S[k] for S in stacks), free[i], rhs[i])
                 for k, i in enumerate(keep))
    # certification minimizes the trace; a bound minimizes obj_free * mu
    obj_blocks = tuple(np.zeros((n, n)) if nfree else np.eye(n) for n in dims)
    prob = SDPProblem(dims, nfree, obj_blocks, np.full(nfree, obj_free), cons)
    return prob, lin_resid


def build_sdp(r: Expr, L: HomogeneousPencil | None = None, level: int = 1,
              direction: str | None = None, seed=0, d: int | None = None,
              tol: float = RANK_TOL) -> SDPProblem:
    """The SDP posed by certify_qm (direction None) or optimize_eig."""
    target, mu_sign, obj_free = _objective(r, direction)
    _, L, _, basis, tables, _ = _setup(r, L, level, seed, d, tol)
    prob, _ = _build_problem(basis, L, tables, target, mu_sign, obj_free, tol)
    return prob


def _membership(r: Expr, L, level: int, seed, d, tol, direction: str | None):
    """Pose and solve the membership SDP of r (direction None) or of its
    sup/inf bound, then check the result: the violation of all equality rows
    by the kept rows' solution and the worst residual at held-out samples
    must both be within RESIDUAL_TOL.  Returns the solution and the certificate,
    or None when the solve or a check failed."""
    target, mu_sign, obj_free = _objective(r, direction)
    d, L, R, basis, tables, carath = _setup(r, L, level, seed, d, tol)
    prob, lin_resid = _build_problem(basis, L, tables, target, mu_sign, obj_free, tol)
    sol = solve(prob)
    if sol.status != "optimal" or lin_resid > RESIDUAL_TOL:
        return sol, None
    H = sol.blocks[0]
    G = sol.blocks[1] if L is not None else None
    if direction is not None:
        mu = ex.scalar(float(sol.free[0]))
        target = ex.sub(mu, r) if direction == "sup" else ex.sub(r, mu)
    resid = _validate(basis, L, H, G, target, R, d, seed, tol)
    if resid > RESIDUAL_TOL:
        return sol, None
    squares = tuple(s for s, in _extract(H, basis, 1, EIG_TOL))
    vectors = _extract(G, basis, L.size, EIG_TOL) if G is not None else ()
    return sol, QMCertificate(basis, H, G, squares, vectors, resid, level, carath)


def certify_qm(r: Expr, L: HomogeneousPencil | None = None, level: int = 1,
               seed=0, d: int | None = None,
               tol: float = RANK_TOL) -> QMCertificate | None:
    """Certify r in the level-`level` quadratic module of the monic LMI
    L = (I, H1..Hk), or return None.

    None means not-certified at this level, which is weaker than "not
    positive": the hierarchy is only complete at level 2 tau(r) + 1.
    """
    return _membership(r, L, level, seed, d, tol, None)[1]


def optimize_eig(r: Expr, L: HomogeneousPencil | None = None,
                 direction: str = "sup", level: int = 1, seed=0,
                 d: int | None = None, tol: float = RANK_TOL) -> OptResult:
    """Best eigenvalue bound of r over the spectrahedron of the monic LMI
    L = (I, H1..Hk) at this level.

    sup: minimal mu with mu - r in Q_level; inf: maximal mu with r - mu there.
    """
    if direction not in ("sup", "inf"):
        raise ValueError("direction must be 'sup' or 'inf'")
    sol, cert = _membership(r, L, level, seed, d, tol, direction)
    if sol.status == "infeasible":
        return OptResult(float("nan"), "infeasible-at-level", None, level, sol.gap)
    if sol.status == "unbounded":
        return OptResult(float("-inf") if direction == "sup" else float("inf"),
                         "unbounded-at-level", None, level, sol.gap)
    if cert is None:
        return OptResult(float("nan"), "solver-failure", None, level, sol.gap)
    return OptResult(float(sol.free[0]), "optimal", cert, level, sol.gap)


def find_violation(r: Expr, L: HomogeneousPencil | None = None, seed=0,
                   d: int | None = None,
                   tol: float = RANK_TOL) -> MatrixTuple | None:
    """Random search for X in the spectrahedron of the monic LMI
    L = (I, H1..Hk) with r(X) not PSD: the smallest eigenvalue of its
    hermitian part below -1e-9.  X must be in r's domain at tol.

    Returns the first witness found among 200 random tuples of sizes
    1..4, or None (inconclusive).
    """
    d, L = _pad_lmi(r, L, d)
    rng = np.random.default_rng(seed)
    for t in range(200):
        n = 1 + t % 4
        X = random_tuple(d, n, n, mode="hermitian", rng=rng)
        if L is not None:
            LX = affine_eval(L, X)
            if np.linalg.eigvalsh((LX + LX.conj().T) / 2)[0] < -1e-12:
                continue
        try:
            val = eval_expr(r, X, tol)
        except DomainError:
            continue
        if np.linalg.eigvalsh((val + val.conj().T) / 2)[0] < -1e-9:
            return X
    return None


def check_identity(lhs: Expr, rhs: Expr, mode: str = "hermitian",
                   samples: int = 50, max_size: int = 3, seed=0,
                   d: int | None = None, tol: float = 1e-8):
    """Numerical equality of two expressions on their common domain.

    Returns (passed, max relative residual, samples compared); raises if no
    common-domain sample is found.
    """
    if mode not in ("hermitian", "generic"):
        raise ValueError("mode must be 'hermitian' or 'generic'")
    if d is None:
        d = max(max(ex.variables_used(lhs), default=0),
                max(ex.variables_used(rhs), default=0), 1)
    rng = np.random.default_rng(seed)
    worst = 0.0
    compared = 0
    budget = samples * 10
    t = 0
    while compared < samples and t < budget:
        n = 1 + t % max_size
        t += 1
        X = random_tuple(d, n, n, mode=mode, rng=rng)
        try:
            a = eval_expr(lhs, X)
            b = eval_expr(rhs, X)
        except DomainError:
            continue
        compared += 1
        worst = max(worst, norm_max(a - b) / (1 + norm_max(a)))
    if compared == 0:
        raise RuntimeError("no common-domain sample found")
    return worst <= tol, worst, compared
