"""Dense interior-point SDP solver, realification, and SDPA file exchange."""

import numpy as np
import pytest
import scipy.linalg

from ncrat import sdpcore
from ncrat.numkernel import cholesky
from ncrat.sdpcore import (
    SDPConstraint,
    SDPProblem,
    _apply_A,
    _apply_At,
    _normal_matrix,
    _stack,
    export_sdpa,
    import_sdpa,
    realify,
    recover_complex,
    solve,
)


def _con(blocks, free=(), rhs=0.0):
    return SDPConstraint(tuple(np.asarray(A, dtype=complex) for A in blocks),
                         np.asarray(free, dtype=float), rhs)


def _simple(obj, cons, dims=(1,), nfree=0, obj_free=()):
    return SDPProblem(dims, nfree,
                      tuple(np.asarray(C, dtype=complex) for C in obj),
                      np.asarray(obj_free, dtype=float), tuple(cons))


E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
E22 = np.array([[0.0, 0.0], [0.0, 1.0]])
E12S = np.array([[0.0, 0.5], [0.5, 0.0]])


class TestSolve:
    def test_correlation_boundary(self):
        # max t with [[1, t], [t, 1]] psd: t* = 1
        cons = (
            _con([E11], [0.0], 1.0),
            _con([E22], [0.0], 1.0),
            _con([E12S], [-1.0], 0.0),
        )
        p = _simple([np.zeros((2, 2))], cons, dims=(2,), nfree=1, obj_free=[-1.0])
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.free[0] == pytest.approx(1.0, abs=1e-6)
        assert sol.objective == pytest.approx(-1.0, abs=1e-6)

    def test_min_trace_with_pinned_entry(self):
        cons = (_con([E11], rhs=1.0),)
        p = _simple([np.eye(2)], cons, dims=(2,))
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-7)

    def test_infeasible(self):
        p = _simple([np.eye(1)], (_con([np.eye(1)], rhs=-1.0),))
        assert solve(p).status == "infeasible"

    def test_unbounded(self):
        # x11 pinned, x22 free to grow with objective -x22
        p = _simple([-E22], (_con([E11], rhs=1.0),), dims=(2,))
        assert solve(p).status == "unbounded"

    def test_free_scalar(self):
        p = _simple([np.eye(1)], (_con([np.eye(1)], [1.0], 2.0),),
                    nfree=1, obj_free=[1.0])
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-6)

    def _random_bounded(self, rng, dims=(3,), m=4, complex_=False):
        def herm(n):
            G = rng.standard_normal((n, n))
            if complex_:
                G = G + 1j * rng.standard_normal((n, n))
            return (G + G.conj().T) / 2

        A = [tuple(herm(n) for n in dims) for _ in range(m)]
        X0 = []
        for n in dims:
            G = rng.standard_normal((n, n))
            if complex_:
                G = G + 1j * rng.standard_normal((n, n))
            X0.append(G @ G.conj().T + np.eye(n))
        b = [sum(float(np.trace(Ab @ Xb).real) for Ab, Xb in zip(Ai, X0))
             for Ai in A]
        z0 = rng.standard_normal(m)
        S0 = [np.eye(n) for n in dims]
        C = [S0[k] + sum(z0[i] * A[i][k] for i in range(m))
             for k in range(len(dims))]
        cons = tuple(_con(Ai, rhs=bi) for Ai, bi in zip(A, b))
        return _simple(C, cons, dims=dims)

    def test_no_constraints(self):
        p = _simple([np.eye(2)], (), dims=(2,))
        sol = solve(p)
        assert sol.status == "optimal"
        assert abs(sol.objective) < 1e-8

    def test_constraint_on_one_of_two_blocks(self):
        # x = 2 on the 1x1 block; the 3x3 block has no constraint and tends to 0
        cons = (_con([np.eye(1), np.zeros((3, 3))], rhs=2.0),)
        p = _simple([np.eye(1), np.eye(3)], cons, dims=(1, 3))
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-8)

    def test_random_real_instances(self, rng):
        for _ in range(6):
            p = self._random_bounded(rng)
            sol = solve(p)
            assert sol.status == "optimal"
            assert sol.gap <= 1e-7
            # weak duality and psd of the returned iterate
            assert sol.dual_objective <= sol.objective + 1e-6
            for Xb in sol.blocks:
                cholesky(Xb + 1e-8 * np.eye(Xb.shape[0]))

    def test_realified_matches_complex(self, rng):
        for _ in range(4):
            p = self._random_bounded(rng, complex_=True)
            sol_c = solve(p)
            sol_r = solve(realify(p))
            assert sol_c.status == sol_r.status == "optimal"
            denom = 1 + abs(sol_c.objective)
            assert abs(sol_c.objective - sol_r.objective) / denom <= 1e-7
            Xrec = recover_complex(sol_r.blocks[0])
            assert np.max(np.abs(Xrec - Xrec.conj().T)) <= 1e-8


def _ref_max_step(X, dX, frac):
    """The step rule factoring each block of X itself, as the solver did when
    it factored X twice and S three times per iteration."""
    alpha = 1.0
    for Xb, dXb in zip(X, dX):
        L = np.linalg.cholesky(Xb)
        W = scipy.linalg.solve_triangular(L, dXb, lower=True)
        W = scipy.linalg.solve_triangular(L, W.conj().T, lower=True).conj().T
        lam = np.linalg.eigvalsh((W + W.conj().T) / 2)[0]
        if lam < 0:
            alpha = min(alpha, -frac / lam)
    return alpha


class _Factors(list):
    """Cholesky factors that remember the blocks they factor."""

    def __init__(self, blocks):
        super().__init__(np.linalg.cholesky(B) for B in blocks)
        self.blocks = blocks


class TestFactorOnce:
    """Passing the per-iteration factors to the step rule changes no bit."""

    def _problems(self, rng):
        t = TestSolve()
        yield t._random_bounded(rng)
        yield t._random_bounded(rng, dims=(3, 2), m=5, complex_=True)
        yield _simple([np.eye(2)], (_con([E11], rhs=1.0),), dims=(2,))
        yield _simple([np.eye(1)], (_con([np.eye(1)], rhs=-1.0),))
        yield _simple([-E22], (_con([E11], rhs=1.0),), dims=(2,))
        yield _simple([np.zeros((2, 2))],
                      (_con([E11], [0.0], 1.0), _con([E22], [0.0], 1.0),
                       _con([E12S], [-1.0], 0.0)),
                      dims=(2,), nfree=1, obj_free=[-1.0])

    def test_iterates_bit_identical(self, rng, monkeypatch):
        problems = list(self._problems(rng))
        got = [solve(p) for p in problems]
        monkeypatch.setattr(sdpcore, "_cholesky_factors", _Factors)
        monkeypatch.setattr(sdpcore, "_max_step",
                            lambda L, dX, frac: _ref_max_step(L.blocks, dX, frac))
        for sol, p in zip(got, problems):
            ref = solve(p)
            assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
            assert sol.objective == ref.objective
            assert sol.dual_objective == ref.dual_objective
            assert np.array_equal(sol.free, ref.free)
            assert np.array_equal(sol.dual, ref.dual)
            assert all(np.array_equal(a, b) for a, b in zip(sol.blocks, ref.blocks))
        assert {sol.status for sol in got} == {"optimal", "infeasible", "unbounded"}


# Loop forms of the kernel's stacked operators, kept as references.

def _ref_apply_A(cons, X):
    return np.array([sum(np.trace(A @ Xb).real for A, Xb in zip(con.blocks, X))
                     for con in cons])


def _ref_apply_At(cons, z, dims):
    out = [np.zeros((n, n), dtype=complex) for n in dims]
    for zi, con in zip(z, cons):
        for b, A in enumerate(con.blocks):
            out[b] += zi * A
    return out


def _ref_normal_matrix(cons, X, Sinv):
    def herm(A):
        return (A + A.conj().T) / 2

    H = [[herm(Xb @ A @ Si) for A, Xb, Si in zip(con.blocks, X, Sinv)] for con in cons]
    return np.array([[sum(np.trace(A @ Hb).real for A, Hb in zip(ci.blocks, H[j]))
                      for j in range(len(cons))] for ci in cons])


class TestStackedOperators:
    DIMS = (3, 2)
    M = 5
    TOL = 1e-12  # times the product of the operand norms

    def _instance(self, rng, complex_):
        def mat(n):
            G = rng.standard_normal((n, n))
            return G + 1j * rng.standard_normal((n, n)) if complex_ else G + 0j

        def herm(n):
            G = mat(n)
            return (G + G.conj().T) / 2

        def pd(n):
            G = mat(n)
            return G @ G.conj().T + np.eye(n)

        cons = tuple(_con([herm(n) for n in self.DIMS]) for _ in range(self.M))
        return cons, [pd(n) for n in self.DIMS], [pd(n) for n in self.DIMS]

    @staticmethod
    def _norm(blocks):
        return np.sqrt(sum(np.linalg.norm(B) ** 2 for B in blocks))

    @pytest.mark.parametrize("complex_", [False, True])
    def test_matches_loop_reference(self, rng, complex_):
        cons, X, Sinv = self._instance(rng, complex_)
        z = rng.standard_normal(self.M)
        Af = _stack(cons, self.DIMS)
        a_norm = max(self._norm(con.blocks) for con in cons)
        x_norm, s_norm = self._norm(X), self._norm(Sinv)

        err = np.abs(_apply_A(Af, X) - _ref_apply_A(cons, X)).max()
        assert err <= self.TOL * a_norm * x_norm
        ref = _ref_apply_At(cons, z, self.DIMS)
        for got, want in zip(_apply_At(Af, z, self.DIMS), ref):
            assert np.abs(got - want).max() <= self.TOL * np.linalg.norm(z) * a_norm
        err = np.abs(_normal_matrix(Af, X, Sinv) - _ref_normal_matrix(cons, X, Sinv)).max()
        assert err <= self.TOL * a_norm ** 2 * x_norm * s_norm


def _ref_hkm(p, iters, frac=0.98):
    """The first iterates (X, y, z) of the solver, written out in loop form:
    row equilibration, the start scale * I, then `iters` HKM
    predictor-corrector steps with inverses of S and step lengths from the
    generalized eigenvalues of (dX, X)."""
    def herm(A):
        return (A + A.conj().T) / 2

    dims, m, nf = p.block_dims, p.m, p.nfree
    nb, ntot = len(dims), sum(dims)
    rscale = np.ones(m)
    for i, con in enumerate(p.constraints):
        nrm = np.sqrt(sum(np.linalg.norm(A) ** 2 for A in con.blocks)
                      + np.linalg.norm(con.free) ** 2)
        if nrm > 0:
            rscale[i] = 1 / nrm
    A = [[rscale[i] * Ab for Ab in con.blocks] for i, con in enumerate(p.constraints)]
    B = np.array([rscale[i] * con.free for i, con in enumerate(p.constraints)]).reshape(m, nf)
    b = np.array([rscale[i] * con.rhs for i, con in enumerate(p.constraints)])
    C, f = p.obj_blocks, p.obj_free

    def apply_A(Y):
        return np.array([sum(np.trace(Ai[k] @ Y[k]).real for k in range(nb)) for Ai in A])

    def apply_At(w):
        return [sum((w[i] * A[i][k] for i in range(m)), np.zeros((n, n), complex))
                for k, n in enumerate(dims)]

    def step(P, dP):
        alpha = 1.0
        for Pb, dPb in zip(P, dP):
            lam = scipy.linalg.eigh(herm(dPb), Pb, eigvals_only=True)[0]
            if lam < 0:
                alpha = min(alpha, -frac / lam)
        return alpha

    scale = max(1.0, *(np.abs(Cb).max() for Cb in C), *np.abs(b))
    X = [scale * np.eye(n, dtype=complex) for n in dims]
    S = [scale * np.eye(n, dtype=complex) for n in dims]
    y, z = np.zeros(nf), np.zeros(m)
    for _ in range(iters):
        rp = b - apply_A(X) - B @ y
        Rd = [C[k] - S[k] - Atz for k, Atz in enumerate(apply_At(z))]
        rf = f - B.T @ z
        mu = sum(np.trace(X[k] @ S[k]).real for k in range(nb)) / ntot
        Sinv = [np.linalg.inv(Sb) for Sb in S]
        M = np.array([[sum(np.trace(A[i][k] @ herm(X[k] @ A[j][k] @ Sinv[k])).real
                           for k in range(nb)) for j in range(m)] for i in range(m)])
        K = np.block([[M, B], [B.T, np.zeros((nf, nf))]])

        def newton(Rc):
            base = [herm((Rc[k] - X[k] @ Rd[k]) @ Sinv[k]) for k in range(nb)]
            sol = np.linalg.solve(K, np.concatenate([rp - apply_A(base), rf]))
            dz, dy = sol[:m], sol[m:]
            dS = [Rd[k] - dA for k, dA in enumerate(apply_At(dz))]
            dX = [herm((Rc[k] - X[k] @ dS[k]) @ Sinv[k]) for k in range(nb)]
            return dX, dy, dz, dS

        dXa, _, _, dSa = newton([-X[k] @ S[k] for k in range(nb)])
        ap, ad = step(X, dXa), step(S, dSa)
        mu_aff = sum(np.trace((X[k] + ap * dXa[k]) @ (S[k] + ad * dSa[k])).real
                     for k in range(nb)) / ntot
        sigma = min(1.0, max(0.0, mu_aff / mu) ** 3)
        dX, dy, dz, dS = newton([sigma * mu * np.eye(n) - X[k] @ S[k] - dXa[k] @ dSa[k]
                                 for k, n in enumerate(dims)])
        ap, ad = step(X, dX), step(S, dS)
        X = [herm(X[k] + ap * dX[k]) for k in range(nb)]
        S = [herm(S[k] + ad * dS[k]) for k in range(nb)]
        y, z = y + ap * dy, z + ad * dz
    return X, y, z * rscale


class TestStepRule:
    """The solver's iterates follow the HKM predictor-corrector step, step
    lengths included: a wrong factor in a step test moves them."""

    TOL = 1e-9  # relative, after at most four steps

    @pytest.mark.parametrize("complex_", [False, True])
    def test_iterates_match_loop_reference(self, complex_, monkeypatch):
        rng = np.random.default_rng(11 if complex_ else 7)
        if complex_:
            p = TestSolve()._random_bounded(rng, dims=(3, 2), m=5, complex_=True)
        else:
            p = _random_problem(rng, (3, 2), 5, 1, False)

        def close(got, want):
            return np.abs(got - want).max() <= self.TOL * (1 + np.abs(want).max())

        for k in range(1, 5):
            monkeypatch.setattr(sdpcore, "MAX_ITER", k)
            sol = solve(p)
            assert (sol.status, sol.iterations) == ("max-iterations", k)
            X, y, z = _ref_hkm(p, k)
            assert all(close(got, want) for got, want in zip(sol.blocks, X))
            if p.nfree:
                assert close(sol.free, y)
            assert close(sol.dual, z)


class TestLastIterate:
    """solve returns the iterate it stopped at and judges its status there;
    no earlier iterate is returned in its place."""

    @pytest.mark.parametrize("k, status", [(4, "max-iterations"), (6, "optimal")])
    def test_iteration_cap(self, monkeypatch, k, status):
        p = _simple([np.eye(2)], (_con([E11], rhs=1.0),), dims=(2,))
        assert solve(p).iterations == 7  # converged at the 7th check
        monkeypatch.setattr(sdpcore, "MAX_ITER", k)
        sol = solve(p)
        # the last check saw an iterate short of the tolerances, within
        # ACCEPT_TOL exactly when the status reads optimal
        metric = max(sol.gap, sol.primal_feas, sol.dual_feas)
        assert metric > sdpcore.TOL_GAP
        assert (metric <= sdpcore.ACCEPT_TOL) == (status == "optimal")
        assert (sol.status, sol.iterations) == (status, k)
        X, _, z = _ref_hkm(p, k)
        # the iterates before the last differ from it by at least 3e-9
        for got, want in [*zip(sol.blocks, X), (sol.dual, z)]:
            assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())


def _lower_factor(rng, n, complex_):
    G = rng.standard_normal((n, n))
    if complex_:
        G = G + 1j * rng.standard_normal((n, n))
    return np.linalg.cholesky(G @ G.conj().T + n * np.eye(n))


class TestDirectLapack:
    """The step rule and S^-1 call LAPACK without scipy's wrappers."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_same_bits_as_scipy_wrappers(self, rng, n, complex_):
        L = _lower_factor(rng, n, complex_)
        B = _lower_factor(rng, n, complex_) @ _lower_factor(rng, n, complex_).conj().T
        W = sdpcore._tri_solve(L, B)
        want = scipy.linalg.solve_triangular(L, B, lower=True)
        assert W.dtype == want.dtype and np.array_equal(W, want)
        # the step rule's second solve, on a transposed view
        V = sdpcore._tri_solve(L, W.conj().T)
        want = scipy.linalg.solve_triangular(L, W.conj().T, lower=True)
        assert V.dtype == want.dtype and np.array_equal(V, want)
        Linv = sdpcore._cho_inverse(L)
        want = scipy.linalg.cho_solve((L, True), np.eye(n))
        assert Linv.dtype == want.dtype and np.array_equal(Linv, want)

    def test_zero_on_diagonal_raises(self, rng):
        L = _lower_factor(rng, 4, True)
        L[2, 2] = 0
        with pytest.raises(np.linalg.LinAlgError):
            sdpcore._tri_solve(L, np.eye(4, dtype=complex))

    def test_singular_factor_ends_in_numerical_failure(self, rng, monkeypatch):
        max_step = sdpcore._max_step

        def singular(LX, dX, frac):
            LX = [L.copy() for L in LX]
            for L in LX:
                L[-1, -1] = 0
            return max_step(LX, dX, frac)

        monkeypatch.setattr(sdpcore, "_max_step", singular)
        sol = solve(TestSolve()._random_bounded(rng))
        assert (sol.status, sol.iterations) == ("numerical-failure", 1)

    def test_solve_calls_no_scipy_wrapper(self, rng, monkeypatch):
        calls = []
        for name in ("solve_triangular", "cho_solve"):
            def spy(*args, _real=getattr(scipy.linalg, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(scipy.linalg, name, spy)
        sol = solve(TestSolve()._random_bounded(rng, dims=(3, 2), m=5))
        assert sol.status == "optimal" and sol.iterations > 1
        assert calls == []


class TestValidation:
    def test_nonhermitian_constraint_rejected(self):
        with pytest.raises(ValueError):
            _con([np.array([[0.0, 1.0], [0.0, 0.0]])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_constraint_rejected(self, bad):
        with pytest.raises(ValueError, match="not hermitian"):
            SDPConstraint((np.array([[1.0, bad], [0.0, 1.0]]),), np.zeros(0), 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            _simple([np.eye(2)], (_con([np.eye(1)], rhs=1.0),), dims=(2,))

    def test_is_complex(self):
        p = _simple([np.eye(1)], ())
        assert not p.is_complex()
        q = _simple([np.array([[0.0, 1j], [-1j, 0.0]])], (), dims=(2,))
        assert q.is_complex()


def _ref_export_sdpa(p, path):
    """The per-entry SDPA writer the array writer must match byte for byte."""
    def realify_mat(A):
        return np.block([[A.real, -A.imag], [A.imag, A.real]]) / 2

    cplx = p.is_complex()
    obj = [realify_mat(C) if cplx else C for C in p.obj_blocks]
    cons = [[realify_mat(A) if cplx else A for A in con.blocks] for con in p.constraints]
    dims = [C.shape[0] for C in obj]
    nblocks = len(dims) + (1 if p.nfree else 0)
    lines = [f'"nfree = {p.nfree}']
    if cplx:
        lines.append('"realified = 1')
    lines.append(f"{p.m}")
    lines.append(f"{nblocks}")
    sizes = [str(n) for n in dims]
    if p.nfree:
        sizes.append(str(-2 * p.nfree))
    lines.append(" ".join(sizes))
    lines.append(" ".join(repr(float(con.rhs)) for con in p.constraints))

    def emit(matno, blkno, A, sign=1.0):
        n = A.shape[0]
        for i in range(n):
            for j in range(i, n):
                val = sign * float(A[i, j].real)
                if val != 0.0:
                    lines.append(f"{matno} {blkno} {i + 1} {j + 1} {val!r}")

    def emit_free(matno, vec, sign=1.0):
        blk = len(dims) + 1
        for k, val in enumerate(vec):
            v = sign * float(val)
            if v != 0.0:
                lines.append(f"{matno} {blk} {2 * k + 1} {2 * k + 1} {float(v)!r}")
                lines.append(f"{matno} {blk} {2 * k + 2} {2 * k + 2} {float(-v)!r}")

    for bnum, Cb in enumerate(obj, start=1):
        emit(0, bnum, Cb, sign=-1.0)
    if p.nfree:
        emit_free(0, p.obj_free, sign=-1.0)
    for i, blocks in enumerate(cons, start=1):
        for bnum, A in enumerate(blocks, start=1):
            emit(i, bnum, A)
        if p.nfree:
            emit_free(i, p.constraints[i - 1].free)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _random_problem(rng, dims, m, nfree, complex_):
    def herm(n):
        G = rng.standard_normal((n, n))
        if complex_:
            G = G + 1j * rng.standard_normal((n, n))
        return (G + G.conj().T) / 2

    cons = tuple(_con([herm(n) for n in dims], rng.standard_normal(nfree),
                      rng.standard_normal()) for _ in range(m))
    return _simple([herm(n) for n in dims], cons, dims=dims, nfree=nfree,
                   obj_free=rng.standard_normal(nfree))


def _sdpa_cases(rng):
    zeros = np.array([[0.0, -0.0], [-0.0, 2.0]])
    yield "real", _simple([np.eye(2)], (_con([E11], rhs=1.0), _con([E12S], rhs=0.5)),
                          dims=(2,))
    yield "two-blocks-free", _simple(
        [np.eye(2), 3 * np.eye(1)],
        (_con([E11, np.eye(1)], [1.0, 0.0], 1.0), _con([E12S, -np.eye(1)], [0.0, -2.0], 0.5)),
        dims=(2, 1), nfree=2, obj_free=[1.0, -0.0])
    yield "complex", _simple([np.array([[1.0, 1j], [-1j, 2.0]])],
                             (_con([np.eye(2)], rhs=1.0),), dims=(2,))
    yield "signed-zeros", _simple([zeros], (_con([-zeros], [-0.0], -0.0),), dims=(2,),
                                  nfree=1, obj_free=[0.0])
    yield "all-zero", _simple([np.zeros((2, 2))], (_con([np.zeros((2, 2))], rhs=1.0),),
                              dims=(2,))
    yield "m0-header-only", _simple([np.zeros((1, 1))], ())
    yield "n20-complex-m60", _random_problem(rng, (20,), 60, 2, True)
    yield "two-blocks-complex", _random_problem(rng, (3, 2), 7, 1, True)


def _assert_same_problem(q, p):
    assert q.block_dims == p.block_dims and q.nfree == p.nfree and q.m == p.m
    assert np.array_equal(q.obj_free, p.obj_free)
    assert all(np.array_equal(a, b) for a, b in zip(q.obj_blocks, p.obj_blocks))
    for cq, cp in zip(q.constraints, p.constraints):
        assert cq.rhs == cp.rhs
        assert np.array_equal(cq.free, cp.free)
        assert all(np.array_equal(a, b) for a, b in zip(cq.blocks, cp.blocks))


_HEADER = '"nfree = 1\n2\n2\n2 -2\n1.0 2.0\n'


class TestSdpaFiles:
    def test_bytes_match_per_entry_writer(self, rng, tmp_path):
        for name, p in _sdpa_cases(rng):
            got, want = tmp_path / f"{name}.dat-s", tmp_path / f"{name}-ref.dat-s"
            export_sdpa(p, str(got))
            _ref_export_sdpa(p, str(want))
            assert got.read_bytes() == want.read_bytes(), name
            q = import_sdpa(str(got))
            _assert_same_problem(q, realify(p) if p.is_complex() else p)

    @pytest.mark.parametrize("entries, named", [
        pytest.param("1 1 0 1 1.0", "1 1 0 1 1.0", id="row-0"),
        pytest.param("1 1 1 0 1.0", "1 1 1 0 1.0", id="column-0"),
        pytest.param("1 1 3 1 1.0", "1 1 3 1 1.0", id="row-beyond-block"),
        pytest.param("1 0 1 1 1.0", "1 0 1 1 1.0", id="block-0"),
        pytest.param("1 3 1 1 1.0", "1 3 1 1 1.0", id="block-beyond-count"),
        pytest.param("3 1 1 1 1.0", "3 1 1 1 1.0", id="matrix-beyond-m"),
        pytest.param("-1 1 1 1 1.0", "-1 1 1 1 1.0", id="matrix-negative"),
        pytest.param("1 1 1.5 1 1.0", "1 1 1.5 1 1.0", id="index-not-integer"),
        pytest.param("1 1 nan 1 1.0", "1 1 nan 1 1.0", id="index-nan"),
        pytest.param("1 1 1 2 1.0\n1 1 2 1 3.0", "1 1 2 1 3.0", id="repeat-transposed"),
        pytest.param("0 2 1 1 1.0\n0 2 2 2 -1.0\n0 2 1 1 1.0", "0 2 1 1 1.0",
                     id="repeat-free"),
        pytest.param("1 2 1 2 1.0", "1 2 1 2 1.0", id="free-off-diagonal"),
        pytest.param("1 2 1 1 1.0", "1 2 1 1 1.0", id="free-unpaired"),
        pytest.param("1 2 1 1 1.0\n1 2 2 2 1.0", "1 2 1 1 1.0", id="free-not-negated"),
        pytest.param("1 1 1 1", "line 6 ('1 1 1 1')", id="four-fields"),
        pytest.param("1 1 1 1 1.0\n1 1 2 2", "line 7 ('1 1 2 2')", id="short-line"),
        pytest.param("1 1 1 1 1.0\n1 1 2 2 x", "line 7 ('1 1 2 2 x')", id="not-a-number"),
    ])
    def test_malformed_entry_rejected(self, tmp_path, entries, named):
        path = tmp_path / "bad.dat-s"
        path.write_text(_HEADER + entries + "\n")
        with pytest.raises(ValueError) as err:
            import_sdpa(str(path))
        assert named in str(err.value)

    def test_objective_only_problem_round_trips(self, tmp_path):
        # m = 0 leaves the rhs line empty; the first entry is still read
        p = _simple([np.array([[1.0, 2.0], [2.0, 0.0]])], (), dims=(2,))
        path = str(tmp_path / "obj.dat-s")
        export_sdpa(p, path)
        _assert_same_problem(import_sdpa(path), p)

    def test_lower_triangle_and_split_pair_read(self, tmp_path):
        path = tmp_path / "ok.dat-s"
        path.write_text(_HEADER + "1 2 1 1 1.5\n1 2 2 2 -1.5\n2 1 2 1 4.0\n")
        q = import_sdpa(str(path))
        assert np.array_equal(q.constraints[0].free, [1.5])
        assert np.array_equal(q.constraints[1].blocks[0], [[0, 4.0], [4.0, 0]])

    def test_round_trip_exact(self, rng, tmp_path):
        cons = (
            _con([E11, np.eye(1)], [1.0, 0.0], 1.0),
            _con([E12S, -np.eye(1)], [0.0, -2.0], 0.5),
        )
        p = _simple([np.eye(2), 3 * np.eye(1)], cons, dims=(2, 1),
                    nfree=2, obj_free=[1.0, -1.0])
        path = str(tmp_path / "prob.dat-s")
        export_sdpa(p, path)
        q = import_sdpa(path)
        assert q.block_dims == p.block_dims
        assert q.nfree == p.nfree
        assert np.array_equal(q.obj_free, p.obj_free)
        for Cq, Cp in zip(q.obj_blocks, p.obj_blocks):
            assert np.array_equal(Cq, Cp)
        for cq, cp in zip(q.constraints, p.constraints):
            assert cq.rhs == cp.rhs
            assert np.array_equal(cq.free, cp.free)
            for Aq, Ap in zip(cq.blocks, cp.blocks):
                assert np.array_equal(Aq, Ap)

    def test_round_trip_solves_to_same_optimum(self, tmp_path):
        cons = (_con([E11], rhs=1.0),)
        p = _simple([np.eye(2)], cons, dims=(2,))
        path = str(tmp_path / "t.dat-s")
        export_sdpa(p, path)
        q = import_sdpa(path)
        assert abs(solve(p).objective - solve(q).objective) <= 1e-8

    def test_complex_problem_realified_on_export(self, tmp_path):
        C = np.array([[1.0, 1j], [-1j, 2.0]])
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = _simple([C], (_con([A], rhs=1.0),), dims=(2,))
        path = str(tmp_path / "c.dat-s")
        export_sdpa(p, path)
        q = import_sdpa(path)
        assert not q.is_complex()
        assert abs(solve(p).objective - solve(q).objective) <= 1e-7

    def test_empty_problem_header_only(self, tmp_path):
        p = _simple([np.zeros((1, 1))], ())
        path = str(tmp_path / "empty.dat-s")
        export_sdpa(p, path)
        q = import_sdpa(path)
        assert q.m == 0 and q.block_dims == (1,)
