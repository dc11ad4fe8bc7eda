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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import expr as ex
from .expr import Expr
from .numkernel import (
    RANK_TOL,
    MatrixTuple,
    hermitian_eig,
    kron,
    matrix_to_json,
    norm_max,
    random_tuple,
    svd_rank,
)
from .pencil import HomogeneousPencil, affine_eval
from .realization import DomainError, eval_expr
from .gnsbasis import (
    EvalTable,
    FunctionBasis,
    SubexprSet,
    build_R,
    build_basis,
    sample_points,
)
from .sdpcore import SDPConfig, SDPConstraint, SDPProblem, solve

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
    R = build_R(r)
    exprs = list(R.exprs)
    have = {ex.to_str(q) for q in exprs}
    for j in range(1, d + 1):
        v = ex.var(j)
        if ex.to_str(v) not in have:
            exprs.append(v)
            have.add(ex.to_str(v))
    return SubexprSet(r, tuple(exprs))


def _check_hermitian_function(r: Expr, d: int, rng, trials: int = 12,
                              tol: float = 1e-8) -> None:
    checked = 0
    for t in range(trials):
        n = 1 + t % 3
        X = random_tuple(d, n, n, mode="hermitian", rng=rng)
        try:
            val = eval_expr(r, X)
        except DomainError:
            continue
        checked += 1
        if norm_max(val - val.conj().T) > tol * max(1.0, norm_max(val)):
            raise ValueError("expression is not hermitian as a function")
    if checked == 0:
        raise ValueError("could not sample the domain to check hermitianness")


def _vech_real(A: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a hermitian matrix for the trace pairing."""
    n = A.shape[0]
    iu = np.triu_indices(n, 1)
    return np.concatenate([
        np.diag(A).real,
        np.sqrt(2) * A[iu].real,
        np.sqrt(2) * A[iu].imag,
    ])


@dataclass
class _Rows:
    """Accumulated linear equality rows over (H, G, free scalars)."""

    hmats: list
    gmats: list
    free: list
    rhs: list


def _assemble_rows(basis: FunctionBasis, L: HomogeneousPencil | None, tables,
                   mu_sign: float | None, target: Expr) -> _Rows:
    """Evaluation-equality rows: for each sample (given by its evaluation
    table) and matrix entry, tr(H A) + tr(G B) + mu_sign*mu*delta = target
    entry, split into real and imaginary parts with hermitian coefficient
    matrices.  The G part is present when the LMI L is."""
    N = basis.dim
    use_loc = L is not None
    rows = _Rows([], [], [], [])
    for table in tables:
        X = table.X
        n = X.rows
        W = [table.word(idx) for idx in basis.indices]
        tgt = eval_expr(target, X)
        if use_loc:
            e = L.size
            Lblocks = [[None] * e for _ in range(e)]
            LX = affine_eval(L, X)
            for i in range(e):
                for j in range(e):
                    Lblocks[i][j] = LX[i * n:(i + 1) * n, j * n:(j + 1) * n]
        for s in range(n):
            for t in range(n):
                Cs = np.array([Wa[:, s] for Wa in W]).T  # n x N
                Ct = np.array([Wb[:, t] for Wb in W]).T
                T = Cs.conj().T @ Ct  # T[a,b] = (w_a* w_b)(X)[s,t]
                A1 = (T.T + T.conj()) / 2
                A2 = (T.T - T.conj()) / 2j
                if use_loc:
                    Q = np.zeros((N * e, N * e), dtype=complex)
                    for i in range(e):
                        for j in range(e):
                            Q[i::e, j::e] = Cs.conj().T @ Lblocks[i][j] @ Ct
                    B1 = (Q.T + Q.conj()) / 2
                    B2 = (Q.T - Q.conj()) / 2j
                else:
                    B1 = B2 = None
                c = tgt[s, t]
                delta = 1.0 if s == t else 0.0
                if mu_sign is None:
                    rows.hmats.append(A1); rows.gmats.append(B1)
                    rows.free.append(np.zeros(0)); rows.rhs.append(c.real)
                    rows.hmats.append(A2); rows.gmats.append(B2)
                    rows.free.append(np.zeros(0)); rows.rhs.append(c.imag)
                else:
                    rows.hmats.append(A1); rows.gmats.append(B1)
                    rows.free.append(np.array([mu_sign * delta]))
                    rows.rhs.append(c.real)
                    rows.hmats.append(A2); rows.gmats.append(B2)
                    rows.free.append(np.array([0.0])); rows.rhs.append(c.imag)
    return rows


def _prune_rows(rows: _Rows, tol: float = RANK_TOL):
    """Drop linearly dependent equality rows (pivoted QR); returns the kept
    indices and whether the full system is consistent with the kept rows."""
    vecs = []
    for A, B, fr in zip(rows.hmats, rows.gmats, rows.free):
        parts = [_vech_real(A)]
        if B is not None:
            parts.append(_vech_real(B))
        parts.append(fr)
        vecs.append(np.concatenate(parts))
    Rmat = np.array(vecs)
    rhs = np.array(rows.rhs)
    _, Rq, piv = scipy.linalg.qr(Rmat.T, pivoting=True, mode="economic")
    diag = np.abs(np.diag(Rq))
    scale = diag[0] if diag.size and diag[0] > 0 else 1.0
    rank = int(np.sum(diag > tol * scale))
    keep = sorted(piv[:rank])
    sol, _, _, _ = np.linalg.lstsq(Rmat.T @ Rmat + 1e-14 * np.eye(Rmat.shape[1]),
                                   Rmat.T @ rhs, rcond=None)
    resid = np.linalg.norm(Rmat @ sol - rhs) / (1 + np.linalg.norm(rhs))
    return keep, resid


def _separation_rank(indices, tables, tol: float = RANK_TOL) -> int:
    cols = [np.concatenate([t.word(idx).ravel() for t in tables])
            for idx in indices]
    A = np.array(cols).T
    # column normalization: injectivity is scale-free, conditioning is not
    norms = np.linalg.norm(A, axis=0)
    norms[norms == 0] = 1.0
    rank, _ = svd_rank(A / norms, tol)
    return rank


def _verify_injectivity(R: SubexprSet, level: int, tables: list, d: int,
                        seed, rng, tol: float = RANK_TOL) -> int:
    """Rank check: evaluations at the samples of the tables separate
    V_{level}; the table list is grown in place if they do not.  Returns
    dim V_{level}."""
    big = build_basis(R, level, seed=seed, d=d, compute_gram=False)
    for _ in range(4):
        if _separation_rank(big.indices, tables, tol) == big.dim:
            return big.dim
        tables += sample_points(R, [2, 3, 4], rng, per_size=2, d=d)
    raise RuntimeError(
        f"sample set does not separate the level-{level} product space "
        f"(dim {big.dim})"
    )


def _extract_squares(H: np.ndarray, basis: FunctionBasis, tol: float):
    w_eig, V = hermitian_eig(H)
    top = w_eig[-1] if w_eig.size else 0.0
    squares = []
    for k in range(len(w_eig) - 1, -1, -1):
        lam = w_eig[k]
        if lam <= tol * max(top, 1.0):
            break
        g = V[:, k] * np.sqrt(lam)
        cut = 1e-9 * np.max(np.abs(g))
        acc = ex.scalar(0)
        for a, b in enumerate(basis.exprs):
            ca = np.conj(g[a])
            if abs(ca) > cut:
                acc = ex.add(acc, ex.mul(ex.scalar(ca), b))
        squares.append(acc)
    return tuple(squares)


def _extract_vectors(G: np.ndarray, basis: FunctionBasis, e: int, tol: float):
    w_eig, V = hermitian_eig(G)
    top = w_eig[-1] if w_eig.size else 0.0
    vectors = []
    for k in range(len(w_eig) - 1, -1, -1):
        lam = w_eig[k]
        if lam <= tol * max(top, 1.0):
            break
        h = V[:, k] * np.sqrt(lam)
        vec = []
        for i in range(e):
            acc = ex.scalar(0)
            for a, b in enumerate(basis.exprs):
                ca = np.conj(h[a * e + i])
                if abs(ca) > 1e-14:
                    acc = ex.add(acc, ex.mul(ex.scalar(ca), b))
            vec.append(acc)
        vectors.append(tuple(vec))
    return tuple(vectors)


def _reconstruct(basis: FunctionBasis, L: HomogeneousPencil | None, H, G,
                 table: EvalTable) -> np.ndarray:
    X = table.X
    n = X.rows
    W = [table.word(idx) for idx in basis.indices]
    Wcat = np.vstack(W)  # (N n) x n
    out = Wcat.conj().T @ kron(H, np.eye(n)) @ Wcat
    if G is not None:
        e = L.size
        LX = affine_eval(L, X)
        for i in range(e):
            for j in range(e):
                Lij = LX[i * n:(i + 1) * n, j * n:(j + 1) * n]
                Gij = G[i::e, j::e]
                LW = np.vstack([Lij @ Wb for Wb in W])
                out += Wcat.conj().T @ kron(Gij, np.eye(n)) @ LW
    return out


def _validate(basis, L, H, G, target: Expr, R: SubexprSet, d: int, seed) -> float:
    """Worst relative residual of the certificate at held-out samples, drawn
    from a stream independent of the one that chose the SDP samples."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=0xC0FFEE if seed is None else seed).spawn(2)[1])
    held = sample_points(R, [1, 2, 3], rng, per_size=3, d=d)
    worst = 0.0
    for table in held:
        want = eval_expr(target, table.X)
        got = _reconstruct(basis, L, H, G, table)
        worst = max(worst, norm_max(want - got) / (1 + norm_max(want)))
    return worst


def _setup(r: Expr, L: HomogeneousPencil | None, level: int, seed, d=None):
    if level < 1:
        raise ValueError("level must be >= 1")
    d, L = _pad_lmi(r, L, d)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    _check_hermitian_function(r, d, rng)
    R = _augment_R(r, d)
    basis = build_basis(R, level, seed=seed, d=d)
    tables = [EvalTable.of(R, X) for X in basis.ip.samples]
    carath = 1 + _verify_injectivity(R, 2 * level + 1, tables, d, seed, rng)
    return d, L, R, basis, tables, carath


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


def _build_problem(basis, L, tables, target, mu_sign, obj_free):
    """Assemble the membership SDP at the samples of the evaluation tables;
    returns (problem, linear residual of the pruned equality system).  L is
    the padded LMI or None."""
    use_loc = L is not None
    rows = _assemble_rows(basis, L, tables, mu_sign, target)
    keep, lin_resid = _prune_rows(rows)
    N = basis.dim
    dims = (N, N * L.size) if use_loc else (N,)
    nfree = 0 if mu_sign is None else 1
    cons = []
    for idx in keep:
        blocks = [rows.hmats[idx]]
        if use_loc:
            blocks.append(rows.gmats[idx])
        cons.append(SDPConstraint(tuple(blocks), rows.free[idx][:nfree] if nfree
                    else np.zeros(0), rows.rhs[idx]))
    if mu_sign is None:
        obj_blocks = tuple(np.eye(n) for n in dims)
        of = np.zeros(0)
    else:
        obj_blocks = tuple(np.zeros((n, n)) for n in dims)
        of = np.array([obj_free])
    prob = SDPProblem(dims, nfree, obj_blocks, of, tuple(cons))
    return prob, lin_resid


def build_sdp(r: Expr, L: HomogeneousPencil | None = None, level: int = 1,
              direction: str | None = None, seed=0,
              d: int | None = None) -> SDPProblem:
    """The SDP posed by certify_qm (direction None) or optimize_eig."""
    target, mu_sign, obj_free = _objective(r, direction)
    _, L, _, basis, tables, _ = _setup(r, L, level, seed, d)
    prob, _ = _build_problem(basis, L, tables, target, mu_sign, obj_free)
    return prob


def certify_qm(r: Expr, L: HomogeneousPencil | None = None, level: int = 1,
               seed=0, d: int | None = None,
               sdp_config: SDPConfig | None = None,
               residual_tol: float = RESIDUAL_TOL) -> QMCertificate | None:
    """Certify r in the level-`level` quadratic module of the monic LMI
    L = (I, H1..Hk), or return None.

    None means not-certified at this level, which is weaker than "not
    positive": the hierarchy is only complete at level 2 tau(r) + 1.
    """
    d, L, R, basis, tables, carath = _setup(r, L, level, seed, d)
    prob, lin_resid = _build_problem(basis, L, tables, r, None, 0.0)
    sol = solve(prob, sdp_config)
    if lin_resid > 1e-7:
        return None
    if sol.status not in ("optimal",):
        return None
    H = sol.blocks[0]
    G = sol.blocks[1] if L is not None else None
    resid = _validate(basis, L, H, G, r, R, d, seed)
    if resid > residual_tol:
        return None
    squares = _extract_squares(H, basis, EIG_TOL)
    vectors = _extract_vectors(G, basis, L.size, EIG_TOL) if G is not None else ()
    return QMCertificate(basis, H, G, squares, vectors, resid, level, carath)


def optimize_eig(r: Expr, L: HomogeneousPencil | None = None,
                 direction: str = "sup", level: int = 1, seed=0,
                 d: int | None = None,
                 sdp_config: SDPConfig | None = None) -> OptResult:
    """Best eigenvalue bound of r over the spectrahedron of the monic LMI
    L = (I, H1..Hk) at this level.

    sup: minimal mu with mu - r in Q_level; inf: maximal mu with r - mu there.
    """
    if direction not in ("sup", "inf"):
        raise ValueError("direction must be 'sup' or 'inf'")
    target, mu_sign, obj_free = _objective(r, direction)
    d, L, R, basis, tables, carath = _setup(r, L, level, seed, d)
    prob, lin_resid = _build_problem(basis, L, tables, target, mu_sign, obj_free)
    sol = solve(prob, sdp_config)
    if sol.status == "infeasible":
        return OptResult(float("nan"), "infeasible-at-level", None, level, sol.gap)
    if sol.status == "unbounded":
        return OptResult(float("-inf") if direction == "sup" else float("inf"),
                         "unbounded-at-level", None, level, sol.gap)
    if sol.status != "optimal" or lin_resid > 1e-6:
        return OptResult(float("nan"), "solver-failure", None, level, sol.gap)
    mu = float(sol.free[0])
    H = sol.blocks[0]
    G = sol.blocks[1] if L is not None else None
    cert_target = (ex.sub(ex.scalar(mu), r) if direction == "sup"
                   else ex.sub(r, ex.scalar(mu)))
    resid = _validate(basis, L, H, G, cert_target, R, d, seed)
    squares = _extract_squares(H, basis, EIG_TOL)
    vectors = _extract_vectors(G, basis, L.size, EIG_TOL) if G is not None else ()
    cert = QMCertificate(basis, H, G, squares, vectors, resid, level, carath)
    return OptResult(mu, "optimal", cert, level, sol.gap)


def find_violation(r: Expr, L: HomogeneousPencil | None = None,
                   budget: int = 200, max_size: int = 4, seed=0,
                   d: int | None = None,
                   tol: float = 1e-9) -> MatrixTuple | None:
    """Random search for X in the spectrahedron of the monic LMI
    L = (I, H1..Hk) with r(X) not PSD.

    Returns the first witness found, or None (inconclusive) on budget
    exhaustion.
    """
    d, L = _pad_lmi(r, L, d)
    rng = np.random.default_rng(seed)
    for t in range(budget):
        n = 1 + t % max_size
        X = random_tuple(d, n, n, mode="hermitian", rng=rng)
        if L is not None:
            LX = affine_eval(L, X)
            if np.linalg.eigvalsh((LX + LX.conj().T) / 2)[0] < -1e-12:
                continue
        try:
            val = eval_expr(r, X)
        except DomainError:
            continue
        if np.linalg.eigvalsh((val + val.conj().T) / 2)[0] < -tol:
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
