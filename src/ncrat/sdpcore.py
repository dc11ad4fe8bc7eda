"""Dense semidefinite programming kernel.

Standard form with multiple hermitian PSD blocks and free scalar variables:

    minimize    sum_b tr(C_b X_b) + f.y
    subject to  sum_b tr(A_ib X_b) + B_i.y = b_i   (i = 1..m)
                X_b >= 0, y free

solved by an infeasible-start primal-dual interior-point method with the HKM
search direction and a Mehrotra predictor-corrector.  Complex hermitian data
is handled natively; realify() produces an equivalent problem over real
symmetric blocks, which is also the form written by the SDPA exporter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .numkernel import is_hermitian, norm_max

__all__ = [
    "SDPConstraint",
    "SDPProblem",
    "SDPSolution",
    "solve",
    "realify",
    "recover_complex",
    "export_sdpa",
    "import_sdpa",
]

# interior-point settings, read by solve() at each call
MAX_ITER = 100
TOL_GAP = 1e-9
TOL_FEAS = 1e-9
ACCEPT_TOL = 1e-7  # for the last iterate of a solve the cap or a breakdown stopped
STEP_FRAC = 0.98
INFEAS_OBJECTIVE = 1e8


def _herm(A: np.ndarray) -> np.ndarray:
    return (A + A.conj().swapaxes(-1, -2)) / 2


def _check_herm(mats, what: str):
    if not all(is_hermitian(A) for A in mats):
        raise ValueError(f"{what} coefficient matrix is not hermitian")


@dataclass(frozen=True)
class SDPConstraint:
    """sum_b tr(blocks[b] X_b) + free . y = rhs."""

    blocks: tuple[np.ndarray, ...]
    free: np.ndarray
    rhs: float

    def __post_init__(self):
        blocks = tuple(np.asarray(A, dtype=complex) for A in self.blocks)
        _check_herm(blocks, "constraint")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "free", np.asarray(self.free, dtype=float))
        object.__setattr__(self, "rhs", float(self.rhs))


@dataclass(frozen=True)
class SDPProblem:
    block_dims: tuple[int, ...]
    nfree: int
    obj_blocks: tuple[np.ndarray, ...]
    obj_free: np.ndarray
    constraints: tuple[SDPConstraint, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        obj = tuple(np.asarray(C, dtype=complex) for C in self.obj_blocks)
        _check_herm(obj, "objective")
        if len(obj) != len(dims) or any(C.shape != (n, n) for C, n in zip(obj, dims)):
            raise ValueError("objective blocks must match block_dims")
        for con in self.constraints:
            if len(con.blocks) != len(dims) or any(
                A.shape != (n, n) for A, n in zip(con.blocks, dims)
            ):
                raise ValueError("constraint blocks must match block_dims")
            if con.free.shape != (self.nfree,):
                raise ValueError("constraint free part must have length nfree")
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "obj_blocks", obj)
        object.__setattr__(self, "obj_free", np.asarray(self.obj_free, dtype=float))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.obj_free.shape != (self.nfree,):
            raise ValueError("objective free part must have length nfree")

    @property
    def m(self) -> int:
        return len(self.constraints)

    def is_complex(self) -> bool:
        mats = list(self.obj_blocks)
        for con in self.constraints:
            mats += list(con.blocks)
        return any(norm_max(A.imag) > 0 for A in mats)


@dataclass(frozen=True)
class SDPSolution:
    blocks: tuple[np.ndarray, ...]
    free: np.ndarray
    dual: np.ndarray
    objective: float
    dual_objective: float
    gap: float
    primal_feas: float
    dual_feas: float
    iterations: int
    status: str  # "optimal" | "infeasible" | "unbounded" | "max-iterations" | "numerical-failure"


def _stack(cons, dims) -> list[np.ndarray]:
    """Per block b, the (m, n_b^2) array whose row i is vec(A_ib)."""
    return [np.array([con.blocks[k] for con in cons], dtype=complex).reshape(len(cons), n * n)
            for k, n in enumerate(dims)]


# Every A_ib is hermitian, so tr(A_ib Y) = vdot(A_ib, Y), and its real part is
# the dot product of the float views (re, im interleaved) of the two arrays.

def _apply_A(Af, X) -> np.ndarray:
    """A(X)_i = sum_b Re tr(A_ib X_b)."""
    return sum(Ab.view(float) @ Xb.ravel().view(float) for Ab, Xb in zip(Af, X))


def _apply_At(Af, z, dims):
    """A*(z) per block: sum_i z_i A_ib."""
    return [(z @ Ab.view(float)).view(complex).reshape(n, n) for Ab, n in zip(Af, dims)]


def _normal_matrix(Af, X, Sinv) -> np.ndarray:
    """HKM normal matrix M_ij = sum_b Re tr(A_ib herm(X_b A_jb S_b^-1))."""
    M = 0.0
    for Ab, Xb, Si in zip(Af, X, Sinv):
        m, n = len(Ab), len(Xb)
        H = _herm(Xb @ Ab.reshape(m, n, n) @ Si)
        M = M + Ab.view(float) @ H.reshape(m, n * n).view(float).T
    return M


def _cholesky_factors(X) -> list[np.ndarray]:
    return [np.linalg.cholesky(Xb) for Xb in X]


# The step rule and S^-1 call LAPACK directly: scipy.linalg's wrappers
# validate their arguments on every call, which costs more than the solves on
# blocks this small.  The calls and arguments are those the wrappers make, so
# the results are the same bits; every operand is finite, as the Newton
# direction is checked before any step test and X, S stay finite with it.

def _tri_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^-1 B for a lower triangular, C-ordered L."""
    trtrs, = get_lapack_funcs(("trtrs",), (L, B))
    W, info = trtrs(L.T, B, lower=0, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"singular triangular factor (info {info})")
    return W


def _cho_inverse(L: np.ndarray) -> np.ndarray:
    """(L L*)^-1 from the lower Cholesky factor L."""
    potrs, = get_lapack_funcs(("potrs",), (L,))
    inv, info = potrs(L, np.eye(L.shape[0]), lower=1)
    if info:
        raise np.linalg.LinAlgError(f"illegal argument {-info} to potrs")
    return inv


def _max_step(LX, dX, frac: float) -> float:
    """Largest alpha <= 1 with X + alpha dX staying positive definite, from
    the Cholesky factors LX of the blocks of X."""
    alpha = 1.0
    for L, dXb in zip(LX, dX):
        W = _tri_solve(L, dXb)
        W = _tri_solve(L, W.conj().T).conj().T
        lam = np.linalg.eigvalsh(_herm(W))[0]
        if lam < 0:
            alpha = min(alpha, -frac / lam)
    return alpha


def solve(p: SDPProblem) -> SDPSolution:
    """HKM predictor-corrector interior-point solve.  The returned status is
    that of the last iterate; stopped by the iteration cap or a breakdown,
    it is optimal within ACCEPT_TOL."""
    dims = p.block_dims
    m = p.m
    nf = p.nfree
    ntot = max(1, sum(dims))
    f = p.obj_free
    C = [np.asarray(Cb) for Cb in p.obj_blocks]

    # row equilibration: scale each constraint to unit coefficient norm
    Af = _stack(p.constraints, dims)
    Bf = np.array([con.free for con in p.constraints]).reshape(m, nf)
    nrm = np.linalg.norm(np.hstack([Ab.view(float) for Ab in Af] + [Bf]), axis=1)
    rscale = 1.0 / np.where(nrm > 0, nrm, 1.0)
    Af = [rscale[:, None] * Ab for Ab in Af]
    Bf = rscale[:, None] * Bf
    b = rscale * np.array([con.rhs for con in p.constraints])

    scale = max(1.0, max((norm_max(Cb) for Cb in C), default=0.0),
                norm_max(b) if m else 0.0)
    X = [np.eye(n, dtype=complex) * scale for n in dims]
    S = [np.eye(n, dtype=complex) * scale for n in dims]
    y = np.zeros(nf)
    z = np.zeros(m)

    status = "max-iterations"
    it = 0
    pobj = dobj = gap = pinf = dinf = np.inf
    for it in range(1, MAX_ITER + 1):
        rp = b - _apply_A(Af, X) - Bf @ y
        Atz = _apply_At(Af, z, dims)
        Rd = [Cb - Sb - Ab for Cb, Sb, Ab in zip(C, S, Atz)]
        rf = f - Bf.T @ z
        XS = [Xb @ Sb for Xb, Sb in zip(X, S)]
        mu = sum(float(np.trace(XSb).real) for XSb in XS) / ntot

        pobj = sum(float(np.trace(Cb @ Xb).real) for Cb, Xb in zip(C, X)) + float(f @ y)
        dobj = float(b @ z)
        gap = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        pinf = np.linalg.norm(rp) / (1 + np.linalg.norm(b))
        dinf = (max((norm_max(R) for R in Rd), default=0.0) + np.linalg.norm(rf)) / (1 + scale)

        if gap <= TOL_GAP and pinf <= TOL_FEAS and dinf <= TOL_FEAS:
            status = "optimal"
            break
        if dobj > INFEAS_OBJECTIVE and dinf <= 1e-6:
            status = "infeasible"
            break
        if pobj < -INFEAS_OBJECTIVE and pinf <= 1e-6:
            status = "unbounded"
            break

        try:
            # these factors also serve the four step-length tests below
            LS = _cholesky_factors(S)
            Sinv = [_cho_inverse(L) for L in LS]
            LX = _cholesky_factors(X)

            # normal matrix, plus free-variable border
            K = np.zeros((m + nf, m + nf))
            K[:m, :m] = _normal_matrix(Af, X, Sinv)
            K[:m, m:] = Bf
            K[m:, :m] = Bf.T

            def newton(Rc):
                base = [_herm((Rcb - Xb @ Rdb) @ Si)
                        for Rcb, Xb, Rdb, Si in zip(Rc, X, Rd, Sinv)]
                h = np.concatenate([rp - _apply_A(Af, base), rf])
                sol = np.linalg.solve(K, h)
                if not np.isfinite(sol).all():
                    raise np.linalg.LinAlgError("non-finite search direction")
                dz, dy = sol[:m], sol[m:]
                dAtz = _apply_At(Af, dz, dims)
                dS = [Rdb - dA for Rdb, dA in zip(Rd, dAtz)]
                dX = [_herm((Rcb - Xb @ dSb) @ Si)
                      for Rcb, Xb, dSb, Si in zip(Rc, X, dS, Sinv)]
                if not all(np.isfinite(D).all() for D in [*dX, *dS]):
                    raise np.linalg.LinAlgError("non-finite search direction")
                return dX, dy, dz, dS

            # predictor (affine scaling)
            Rc_aff = [-XSb for XSb in XS]
            dXa, dya, dza, dSa = newton(Rc_aff)
            ap = _max_step(LX, dXa, STEP_FRAC)
            ad = _max_step(LS, dSa, STEP_FRAC)
            mu_aff = sum(
                float(np.trace((Xb + ap * dXb) @ (Sb + ad * dSb)).real)
                for Xb, dXb, Sb, dSb in zip(X, dXa, S, dSa)
            ) / ntot
            sigma = min(1.0, max(0.0, (mu_aff / mu)) ** 3) if mu > 0 else 0.0

            # corrector
            Rc = [sigma * mu * np.eye(n) - XSb - dXb @ dSb
                  for n, XSb, dXb, dSb in zip(dims, XS, dXa, dSa)]
            dX, dy, dz, dS = newton(Rc)
            ap = _max_step(LX, dX, STEP_FRAC)
            ad = _max_step(LS, dS, STEP_FRAC)
        except np.linalg.LinAlgError:
            status = "numerical-failure"
            break

        X = [_herm(Xb + ap * dXb) for Xb, dXb in zip(X, dX)]
        S = [_herm(Sb + ad * dSb) for Sb, dSb in zip(S, dS)]
        y = y + ap * dy
        z = z + ad * dz

    # near the optimum the steps can collapse with the gap just above
    # TOL_GAP, once the normal matrix is ill-conditioned
    if status in ("max-iterations", "numerical-failure") \
            and max(gap, pinf, dinf) <= ACCEPT_TOL:
        status = "optimal"
    return SDPSolution(
        blocks=tuple(X),
        free=y,
        dual=z * rscale,
        objective=pobj,
        dual_objective=dobj,
        gap=gap,
        primal_feas=pinf,
        dual_feas=dinf,
        iterations=it,
        status=status,
    )


# ---------------------------------------------------------------------------
# complex-to-real embedding

def _block_stacks(p: SDPProblem) -> list[np.ndarray]:
    """Per block b, the (m+1, n_b, n_b) stack of C_b and the A_ib."""
    return [np.array([Cb, *(con.blocks[k] for con in p.constraints)])
            for k, Cb in enumerate(p.obj_blocks)]


def _realify_stack(A: np.ndarray) -> np.ndarray:
    # [[Re, -Im], [Im, Re]] / 2 of each matrix keeps tr(T(A) T(X)) = tr(A X)
    re, im = A.real, A.imag
    return np.concatenate([np.concatenate([re, -im], axis=-1),
                           np.concatenate([im, re], axis=-1)], axis=-2) / 2


def realify(p: SDPProblem) -> SDPProblem:
    """Equivalent problem over real symmetric blocks of doubled size.

    Coefficients are halved so every trace, and hence the optimum, is
    preserved; a complex solution is recovered with recover_complex.
    """
    stacks = [_realify_stack(S) for S in _block_stacks(p)]
    cons = tuple(SDPConstraint(tuple(S[i] for S in stacks), con.free, con.rhs)
                 for i, con in enumerate(p.constraints, start=1))
    return SDPProblem(tuple(2 * n for n in p.block_dims), p.nfree,
                      tuple(S[0] for S in stacks), p.obj_free, cons)


def recover_complex(Xhat: np.ndarray) -> np.ndarray:
    """Complex hermitian block from its realified solution block.

    Averages over the embedding symmetry, which preserves feasibility,
    positivity and all traces against realified coefficients.
    """
    n = Xhat.shape[0] // 2
    re = (Xhat[:n, :n] + Xhat[n:, n:]).real / 2
    im = (Xhat[n:, :n] - Xhat[:n, n:]).real / 2
    return re + 1j * im


# ---------------------------------------------------------------------------
# SDPA sparse exchange format

def _nonzeros(U: np.ndarray, prefixes: list[str]):
    """The nonzeros of U, whose row k holds the entries of matrix number k
    and whose column t has the line text `prefixes[t]`: per row the [start,
    end) bounds, then each nonzero's prefix and value in row-major order."""
    nz = np.flatnonzero(U)
    rows, cols = np.divmod(nz, U.shape[1])
    bounds = np.searchsorted(rows, np.arange(U.shape[0] + 1)).tolist()
    return bounds, np.array(prefixes, dtype=object)[cols], U.ravel()[nz]


def export_sdpa(p: SDPProblem, path: str) -> None:
    """Write the problem in SDPA sparse ".dat-s" form.

    Our primal is encoded as the SDPA dual: F_i = A_i, F_0 = -C, c = b, so
    the SDPA dual optimum equals the negated objective of p.  Complex blocks
    are realified; free scalars become a trailing diagonal block holding the
    split y = y+ - y-, recorded in a comment for exact re-import.
    """
    cplx = p.is_complex()
    stacks = [_realify_stack(S) if cplx else S.real for S in _block_stacks(p)]
    m, nf = p.m, p.nfree
    sizes = [str(S.shape[1]) for S in stacks] + ([str(-2 * nf)] if nf else [])
    header = [f'"nfree = {nf}', *(['"realified = 1'] if cplx else []),
              f"{m}", f"{len(sizes)}", " ".join(sizes),
              " ".join(repr(float(con.rhs)) for con in p.constraints)]

    # per block, the upper triangles row by row; row 0 is F_0 = -C
    parts = []
    for blk, S in enumerate(stacks, start=1):
        iu, ju = np.triu_indices(S.shape[1])
        U = S[:, iu, ju]
        U[0] = -U[0]
        parts.append(_nonzeros(U, [f" {blk} {i} {j} " for i, j
                                   in zip((iu + 1).tolist(), (ju + 1).tolist())]))
    if nf:
        F = np.array([p.obj_free, *(con.free for con in p.constraints)])
        F[0] = -F[0]
        blk = len(stacks) + 1
        parts.append(_nonzeros(np.stack([F, -F], axis=2).reshape(m + 1, 2 * nf),
                               [f" {blk} {i} {i} " for i in range(1, 2 * nf + 1)]))

    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for k in range(m + 1):
            lines = []
            for bounds, prefix, vals in parts:
                a, b = bounds[k], bounds[k + 1]
                lines += map(str.__add__, prefix[a:b], map(repr, vals[a:b].tolist()))
            if lines:
                fh.write(f"{k}" + f"\n{k}".join(lines) + "\n")


def _malformed(path: str, start: int) -> str:
    """Names the first line from line `start` on that is not five numbers."""
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            fields = line.split('"', 1)[0].split()
            if n < start or not fields:
                continue
            if len(fields) == 5:
                try:
                    list(map(float, fields))
                    continue
                except ValueError:
                    pass
            return f"{path}: line {n} ({line.strip()!r}) is not an SDPA entry"
    return f"{path}: malformed SDPA entries"


def _repeated(key: np.ndarray) -> np.ndarray:
    """Mask of the entries whose key equals that of an earlier entry."""
    order = np.argsort(key, kind="stable")
    out = np.zeros(len(key), dtype=bool)
    out[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    return out


def import_sdpa(path: str) -> SDPProblem:
    """Read a ".dat-s" file written by export_sdpa back into an SDPProblem.

    Understands the free-scalar comment convention; genuinely complex
    problems come back in realified form.  An entry that is not five
    numbers, has a non-integer or out-of-range matrix, block, row or column
    number, repeats a position, or breaks the free-scalar convention raises
    ValueError naming it.
    """
    nfree = 0
    lineno = 0
    with open(path) as fh:
        def next_line() -> str:
            nonlocal nfree, lineno
            while line := fh.readline():
                lineno += 1
                line = line.strip()
                if line.startswith(('"', "*")):
                    if "nfree" in line:
                        nfree = int(line.split("=")[1])
                elif line:
                    return line
            raise ValueError(f"{path}: SDPA header ends early")

        m = int(next_line())
        nblocks = int(next_line())
        sizes = [int(s) for s in next_line().split()]
        rhs = [float(s) for s in next_line().split()] if m else []
        if len(sizes) != nblocks:
            raise ValueError("block size count mismatch")
        if len(rhs) != m:
            raise ValueError("rhs length mismatch")
        if nfree and (not sizes or sizes[-1] != -2 * nfree):
            raise ValueError("free-scalar block must be the last, of size -2*nfree")
        # skip to the first entry, so an empty rest is no loadtxt warning
        while True:
            pos = fh.tell()
            line = fh.readline()
            if not line or line.split('"', 1)[0].strip():
                break
            lineno += 1
        E = np.empty((0, 5))
        if line:
            fh.seek(pos)
            try:
                E = np.loadtxt(fh, ndmin=2, comments='"')
            except ValueError:
                E = None
    if E is None or E.shape[1] != 5:
        raise ValueError(_malformed(path, lineno + 1))
    nmat = nblocks - (1 if nfree else 0)
    dims = [abs(s) for s in sizes[:nmat]]

    def reject(bad: np.ndarray, why: str):
        if bad.any():
            e = E[int(np.flatnonzero(bad)[0])]
            entry = " ".join(f"{x:g}" for x in e[:4]) + f" {float(e[4])!r}"
            raise ValueError(f"{path}: SDPA entry '{entry}': {why}")

    idx, val = E[:, :4], E[:, 4]
    reject((idx != np.floor(idx)).any(axis=1), "indices must be integers")
    reject((idx[:, 0] < 0) | (idx[:, 0] > m), f"matrix number outside 0..{m}")
    reject((idx[:, 1] < 1) | (idx[:, 1] > nblocks), f"block number outside 1..{nblocks}")
    n = np.array([*dims, 2 * nfree], dtype=float)[idx[:, 1].astype(int) - 1]
    reject(((idx[:, 2:] < 1) | (idx[:, 2:] > n[:, None])).any(axis=1),
           "row or column outside the block")
    I = idx.astype(int)
    I -= [0, 1, 1, 1]
    mat, blk, i, j = I.T
    free = blk == nmat
    reject(free & (i != j), "free-scalar block must be diagonal")
    N = max(dims, default=0) + 2 * nfree
    reject(_repeated(((mat * nblocks + blk) * N + np.minimum(i, j)) * N + np.maximum(i, j)),
           "position given twice")

    val = np.where(mat == 0, -val, val)  # F_0 = -C
    stacks = []
    for b, nb in enumerate(dims):
        s = blk == b
        S = np.zeros((m + 1, nb, nb), dtype=complex)
        S[mat[s], i[s], j[s]] = val[s]
        S[mat[s], j[s], i[s]] = val[s]
        stacks.append(S)
    # the split pair y+ - y-: row 0 holds the y+ coefficients, row 1 the y-
    F = np.zeros((2, m + 1, nfree))
    fi, fm, fv = i[free], mat[free], val[free]
    F[fi % 2, fm, fi // 2] = fv
    partner = F[1 - fi % 2, fm, fi // 2]
    unpaired = free.copy()
    unpaired[free] = (partner != -fv) & ~(np.isnan(partner) & np.isnan(fv))
    reject(unpaired, "free-scalar entry without its negated partner")
    cons = tuple(SDPConstraint(tuple(S[k] for S in stacks), F[0, k], rhs[k - 1])
                 for k in range(1, m + 1))
    return SDPProblem(tuple(dims), nfree, tuple(S[0] for S in stacks), F[0, 0], cons)
