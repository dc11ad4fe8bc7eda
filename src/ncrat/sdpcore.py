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

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .numkernel import herm_deviation, matrix_to_json, norm_max

__all__ = [
    "SDPConstraint",
    "SDPProblem",
    "SDPSolution",
    "SDPConfig",
    "solve",
    "realify",
    "recover_complex",
    "export_sdpa",
    "import_sdpa",
]

HERM_TOL = 1e-12


def _herm(A: np.ndarray) -> np.ndarray:
    return (A + A.conj().swapaxes(-1, -2)) / 2


def _check_herm(mats, what: str):
    for A in mats:
        if herm_deviation(A) > HERM_TOL * max(1.0, norm_max(A)):
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

    def to_json(self) -> dict:
        return {
            "block_dims": list(self.block_dims),
            "nfree": self.nfree,
            "obj_blocks": [matrix_to_json(C) for C in self.obj_blocks],
            "obj_free": list(map(float, self.obj_free)),
            "constraints": [
                {
                    "blocks": [matrix_to_json(A) for A in con.blocks],
                    "free": list(map(float, con.free)),
                    "rhs": con.rhs,
                }
                for con in self.constraints
            ],
        }


@dataclass(frozen=True)
class SDPConfig:
    max_iter: int = 100
    tol_gap: float = 1e-9
    tol_feas: float = 1e-9
    accept_tol: float = 1e-7  # best-iterate fallback still counted as optimal
    step_frac: float = 0.98
    infeas_objective: float = 1e8


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

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "objective": self.objective,
            "dual_objective": self.dual_objective,
            "gap": self.gap,
            "primal_feas": self.primal_feas,
            "dual_feas": self.dual_feas,
            "iterations": self.iterations,
            "blocks": [matrix_to_json(X) for X in self.blocks],
            "free": list(map(float, self.free)),
            "dual": list(map(float, self.dual)),
        }


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


def _max_step(X, dX, frac: float) -> float:
    """Largest alpha <= 1 with X + alpha dX staying positive definite."""
    alpha = 1.0
    for Xb, dXb in zip(X, dX):
        L = np.linalg.cholesky(Xb)
        W = scipy.linalg.solve_triangular(L, dXb, lower=True)
        W = scipy.linalg.solve_triangular(L, W.conj().T, lower=True).conj().T
        lam = np.linalg.eigvalsh(_herm(W))[0]
        if lam < 0:
            alpha = min(alpha, -frac / lam)
    return alpha


def solve(p: SDPProblem, config: SDPConfig | None = None) -> SDPSolution:
    """HKM predictor-corrector interior-point solve."""
    cfg = config or SDPConfig()
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
    best = None
    best_metric = np.inf
    for it in range(1, cfg.max_iter + 1):
        rp = b - _apply_A(Af, X) - Bf @ y
        Atz = _apply_At(Af, z, dims)
        Rd = [Cb - Sb - Ab for Cb, Sb, Ab in zip(C, S, Atz)]
        rf = f - Bf.T @ z
        mu = sum(float(np.trace(Xb @ Sb).real) for Xb, Sb in zip(X, S)) / ntot

        pobj = sum(float(np.trace(Cb @ Xb).real) for Cb, Xb in zip(C, X)) + float(f @ y)
        dobj = float(b @ z)
        gap = abs(pobj - dobj) / (1 + abs(pobj) + abs(dobj))
        pinf = np.linalg.norm(rp) / (1 + np.linalg.norm(b))
        dinf = (max((norm_max(R) for R in Rd), default=0.0) + np.linalg.norm(rf)) / (1 + scale)

        metric = max(gap, pinf, dinf)
        if metric < best_metric:
            best_metric = metric
            best = (list(X), list(S), y.copy(), z.copy(),
                    pobj, dobj, gap, pinf, dinf)
        if gap <= cfg.tol_gap and pinf <= cfg.tol_feas and dinf <= cfg.tol_feas:
            status = "optimal"
            break
        if dobj > cfg.infeas_objective and dinf <= 1e-6:
            status = "infeasible"
            break
        if pobj < -cfg.infeas_objective and pinf <= 1e-6:
            status = "unbounded"
            break

        try:
            Sinv = []
            for Sb in S:
                L = np.linalg.cholesky(Sb)
                Sinv.append(scipy.linalg.cho_solve((L, True), np.eye(Sb.shape[0])))

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
            Rc_aff = [-Xb @ Sb for Xb, Sb in zip(X, S)]
            dXa, dya, dza, dSa = newton(Rc_aff)
            ap = _max_step(X, dXa, cfg.step_frac)
            ad = _max_step(S, dSa, cfg.step_frac)
            mu_aff = sum(
                float(np.trace((Xb + ap * dXb) @ (Sb + ad * dSb)).real)
                for Xb, dXb, Sb, dSb in zip(X, dXa, S, dSa)
            ) / ntot
            sigma = min(1.0, max(0.0, (mu_aff / mu)) ** 3) if mu > 0 else 0.0

            # corrector
            Rc = [
                sigma * mu * np.eye(n) - Xb @ Sb - dXb @ dSb
                for n, Xb, Sb, dXb, dSb in zip(dims, X, S, dXa, dSa)
            ]
            dX, dy, dz, dS = newton(Rc)
            ap = _max_step(X, dX, cfg.step_frac)
            ad = _max_step(S, dS, cfg.step_frac)
        except np.linalg.LinAlgError:
            status = "numerical-failure"
            break

        X = [_herm(Xb + ap * dXb) for Xb, dXb in zip(X, dX)]
        S = [_herm(Sb + ad * dSb) for Sb, dSb in zip(S, dS)]
        y = y + ap * dy
        z = z + ad * dz

    if status in ("max-iterations", "numerical-failure") and best is not None \
            and best_metric <= cfg.accept_tol:
        X, S, y, z, pobj, dobj, gap, pinf, dinf = best
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

def _realify_mat(A: np.ndarray) -> np.ndarray:
    # [[Re, -Im], [Im, Re]] / 2 keeps tr(T(A) T(X)) = tr(A X)
    return np.block([[A.real, -A.imag], [A.imag, A.real]]) / 2


def realify(p: SDPProblem) -> SDPProblem:
    """Equivalent problem over real symmetric blocks of doubled size.

    Coefficients are halved so every trace, and hence the optimum, is
    preserved; a complex solution is recovered with recover_complex.
    """
    dims = tuple(2 * n for n in p.block_dims)
    obj = tuple(_realify_mat(C).astype(complex) for C in p.obj_blocks)
    cons = tuple(
        SDPConstraint(
            tuple(_realify_mat(A).astype(complex) for A in con.blocks),
            con.free,
            con.rhs,
        )
        for con in p.constraints
    )
    return SDPProblem(dims, p.nfree, obj, p.obj_free, cons)


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

def export_sdpa(p: SDPProblem, path: str) -> None:
    """Write the problem in SDPA sparse ".dat-s" form.

    Our primal is encoded as the SDPA dual: F_i = A_i, F_0 = -C, c = b, so
    the SDPA dual optimum equals the negated objective of p.  Complex blocks
    are realified; free scalars become a trailing diagonal block holding the
    split y = y+ - y-, recorded in a comment for exact re-import.
    """
    q = realify(p) if p.is_complex() else p
    dims = list(q.block_dims)
    nblocks = len(dims) + (1 if q.nfree else 0)
    lines = [f'"nfree = {q.nfree}']
    if p.is_complex():
        lines.append('"realified = 1')
    lines.append(f"{q.m}")
    lines.append(f"{nblocks}")
    sizes = [str(n) for n in dims]
    if q.nfree:
        sizes.append(str(-2 * q.nfree))
    lines.append(" ".join(sizes))
    lines.append(" ".join(repr(float(con.rhs)) for con in q.constraints))

    def emit(matno: int, blkno: int, A: np.ndarray, sign: float = 1.0):
        n = A.shape[0]
        for i in range(n):
            for j in range(i, n):
                val = sign * float(A[i, j].real)
                if val != 0.0:
                    lines.append(f"{matno} {blkno} {i + 1} {j + 1} {val!r}")

    def emit_free(matno: int, vec: np.ndarray, sign: float = 1.0):
        blk = len(dims) + 1
        for k, val in enumerate(vec):
            v = sign * float(val)
            if v != 0.0:
                lines.append(f"{matno} {blk} {2 * k + 1} {2 * k + 1} {float(v)!r}")
                lines.append(f"{matno} {blk} {2 * k + 2} {2 * k + 2} {float(-v)!r}")

    for bnum, Cb in enumerate(q.obj_blocks, start=1):
        emit(0, bnum, Cb, sign=-1.0)
    if q.nfree:
        emit_free(0, q.obj_free, sign=-1.0)
    for i, con in enumerate(q.constraints, start=1):
        for bnum, A in enumerate(con.blocks, start=1):
            emit(i, bnum, A)
        if q.nfree:
            emit_free(i, con.free)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def import_sdpa(path: str) -> SDPProblem:
    """Read a ".dat-s" file written by export_sdpa back into an SDPProblem.

    Understands the free-scalar comment convention; genuinely complex
    problems come back in realified form.
    """
    nfree = 0
    tokens: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith('"') or line.startswith("*"):
                if "nfree" in line:
                    nfree = int(line.split("=")[1])
                continue
            tokens.append(line)
    m = int(tokens[0])
    nblocks = int(tokens[1])
    sizes = [int(s) for s in tokens[2].split()]
    if len(sizes) != nblocks:
        raise ValueError("block size count mismatch")
    rhs = [float(s) for s in tokens[3].split()] if m else []
    if len(rhs) != m:
        raise ValueError("rhs length mismatch")
    nmat = nblocks - (1 if nfree else 0)
    dims = [abs(s) for s in sizes[:nmat]]
    obj = [np.zeros((n, n), dtype=complex) for n in dims]
    obj_free = np.zeros(nfree)
    conA = [[np.zeros((n, n), dtype=complex) for n in dims] for _ in range(m)]
    con_free = [np.zeros(nfree) for _ in range(m)]
    for line in tokens[4:]:
        matno_s, blkno_s, i_s, j_s, val_s = line.split()
        matno, blkno, i, j = int(matno_s), int(blkno_s), int(i_s) - 1, int(j_s) - 1
        val = float(val_s)
        if nfree and blkno == nblocks:
            if i != j:
                raise ValueError("free-scalar block must be diagonal")
            if i % 2:
                continue  # the negated partner of the split pair
            k = i // 2
            if matno == 0:
                obj_free[k] = -val
            else:
                con_free[matno - 1][k] = val
            continue
        target = obj[blkno - 1] if matno == 0 else conA[matno - 1][blkno - 1]
        sign = -1.0 if matno == 0 else 1.0
        target[i, j] = sign * val
        target[j, i] = sign * val
    cons = tuple(
        SDPConstraint(tuple(conA[i]), con_free[i], rhs[i]) for i in range(m)
    )
    return SDPProblem(tuple(dims), nfree, tuple(obj), obj_free, cons)
