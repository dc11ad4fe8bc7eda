"""Quadratic-module certificates, eigenvalue optimization, identity checking."""

import json
import tracemalloc

import numpy as np
import pytest

from ncrat import expr as ex
from ncrat import gnsbasis, psatz
from ncrat.cli import _load_pencil
from ncrat.gnsbasis import build_R, build_basis, independent_words
from ncrat.numkernel import MatrixTuple, matrix_to_json, random_tuple
from ncrat.pencil import HomogeneousPencil, affine_eval
from ncrat.realization import eval_expr
from ncrat.sdpcore import SDPSolution
from ncrat.psatz import (
    build_sdp,
    certify_qm,
    check_identity,
    find_violation,
    optimize_eig,
)

# L(x1) = 1 + diag(1, -1) x1 as the monic pencil (I, H1): eigenvalues of x1
# in [-1, 1]
INTERVAL = HomogeneousPencil((np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]])))


def _write_lmi(path, Hs):
    path.write_text(json.dumps({"H": [matrix_to_json(H) for H in Hs]}))
    return str(path)


class TestMonicHermitianPencil:
    def test_trivial(self):
        # the 1 x 1 zero LMI adds no localizing block
        L = HomogeneousPencil((np.eye(1), np.zeros((1, 1))))
        assert L.size == 1
        r = ex.parse("x1*x1", d=1)
        assert build_sdp(r, L).block_dims == build_sdp(r).block_dims

    def test_eval(self, rng):
        X = random_tuple(1, 2, 2, mode="hermitian", rng=rng)
        val = affine_eval(INTERVAL, X)
        assert val.shape == (4, 4)
        assert np.allclose(val[:2, :2], np.eye(2) + X[0])

    def test_nonhermitian_rejected(self, tmp_path):
        path = _write_lmi(tmp_path / "l.json", [np.array([[0.0, 1.0], [0.0, 0.0]])])
        with pytest.raises(ValueError):
            _load_pencil(path, "H")

    def test_json_round_trip(self, tmp_path):
        L, _ = _load_pencil(_write_lmi(tmp_path / "l.json", INTERVAL.coeffs[1:]), "H")
        for a, b in zip(L.coeffs, INTERVAL.coeffs):
            assert np.array_equal(a, b)


class TestCertify:
    def test_square_certifies(self):
        r = ex.parse("x1*x1", d=1)
        cert = certify_qm(r, level=1, seed=0)
        assert cert is not None
        assert cert.residual <= 1e-6
        assert 1 <= len(cert.squares) <= cert.carath_bound

    def test_indefinite_not_certified(self):
        r = ex.parse("x1", d=1)
        assert certify_qm(r, level=1, seed=0) is None
        X = find_violation(r, seed=0)
        assert X is not None
        assert np.linalg.eigvalsh(X[0])[0] < 0

    def test_localized_certificate(self):
        # 2 - x1^2 is psd on the interval spectrahedron but not globally
        r = ex.parse("2 - x1*x1", d=1)
        cert = certify_qm(r, INTERVAL, level=1, seed=0)
        assert cert is not None and cert.residual <= 1e-6
        assert cert.G is not None and len(cert.vectors) >= 1
        assert find_violation(r, seed=0) is not None
        assert find_violation(r, INTERVAL, seed=0) is None

    def test_nonhermitian_rejected(self):
        with pytest.raises(ValueError):
            certify_qm(ex.parse("x1*x2", d=2), level=1)


class TestOptimize:
    def test_sup_on_interval(self):
        out = optimize_eig(ex.var(1), INTERVAL, direction="sup", level=1, seed=0)
        assert out.status == "optimal"
        assert out.mu == pytest.approx(1.0, abs=1e-5)
        assert out.certificate is not None
        assert out.certificate.residual <= 1e-6

    def test_inf_of_square(self):
        out = optimize_eig(ex.parse("x1*x1", d=1), direction="inf", level=1, seed=0)
        assert out.status == "optimal"
        assert out.mu == pytest.approx(0.0, abs=1e-6)

    def test_sup_of_resolvent(self):
        # sup of inv(2 - x1) on the interval is 1, attained at x1 = 1
        r = ex.parse("inv(2-x1)", d=1)
        for level in (1, 2):
            out = optimize_eig(r, INTERVAL, direction="sup", level=level, seed=0)
            assert out.status == "optimal"
            assert out.mu == pytest.approx(1.0, abs=1e-4)

    def test_sup_unbounded_without_pencil(self):
        out = optimize_eig(ex.var(1), direction="sup", level=1, seed=0)
        assert out.status in ("unbounded-at-level", "solver-failure", "infeasible-at-level")
        assert out.certificate is None

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            optimize_eig(ex.var(1), INTERVAL, direction="max")

    @pytest.mark.parametrize("solver, direction, status, mu", [
        ("infeasible", "sup", "infeasible-at-level", None),
        ("infeasible", "inf", "infeasible-at-level", None),
        ("unbounded", "sup", "unbounded-at-level", -np.inf),
        ("unbounded", "inf", "unbounded-at-level", np.inf),
    ])
    def test_solver_status_mapped(self, monkeypatch, solver, direction, status, mu):
        def solve(prob):
            return SDPSolution(
                tuple(np.eye(n) for n in prob.block_dims), np.zeros(prob.nfree),
                np.zeros(prob.m), 0.0, 0.0, 0.25, 0.0, 0.0, 7, solver)

        monkeypatch.setattr(psatz, "solve", solve)
        out = optimize_eig(ex.var(1), INTERVAL, direction=direction, level=1, seed=0)
        assert (out.status, out.certificate, out.level, out.gap) == (status, None, 1, 0.25)
        assert np.isnan(out.mu) if mu is None else out.mu == mu

    def test_failed_validation_not_optimal(self, monkeypatch):
        # an optimal SDP whose certificate misses the held-out samples
        monkeypatch.setattr(psatz, "_validate", lambda *args: 1e-3)
        out = optimize_eig(ex.var(1), INTERVAL, direction="sup", level=1, seed=0)
        assert out.status == "solver-failure"
        assert out.certificate is None


class TestSetup:
    def test_samples_drawn_once(self, monkeypatch):
        # the V_1 basis and the V_3 check read one sample stream, so together
        # they draw no more tuples than the V_3 sweep alone
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return random_tuple(*args, **kwargs)

        monkeypatch.setattr(gnsbasis, "random_tuple", counted)
        r = ex.parse("inv(2-x1)", d=1)
        psatz._setup(r, None, 1, 0)
        drawn = len(calls)
        calls.clear()
        build_basis(build_R(r), 3, seed=0)
        assert 0 < drawn <= len(calls)

    def test_falls_back_to_the_check_tables(self, monkeypatch):
        separates = psatz._separates
        seen = []
        sweeps = []

        def short_once(words, tables, tol):
            seen.append(tables)
            return separates(words, tables, tol) and len(seen) > 1

        def spy(stream, level, tol):
            sweeps.append(independent_words(stream, level, tol))
            return sweeps[-1]

        monkeypatch.setattr(psatz, "_separates", short_once)
        monkeypatch.setattr(psatz, "independent_words", spy)
        r = ex.parse("inv(2-x1)", d=1)
        _, _, _, basis, tables, carath = psatz._setup(r, INTERVAL, 1, 0)
        (words, check_tables), = sweeps
        assert seen[0] is basis.tables
        assert tables is check_tables
        assert len(tables) > len(basis.tables)
        assert carath == 1 + len(words)

    def test_no_separation_raises(self, monkeypatch):
        monkeypatch.setattr(psatz, "_separates", lambda *args: False)
        with pytest.raises(RuntimeError, match="does not separate the level-3"):
            psatz._setup(ex.parse("inv(2-x1)", d=1), INTERVAL, 1, 0)

    def test_more_words_than_coordinates(self):
        # three words evaluated at one 1 x 1 sample: the 1 x 3 evaluation
        # matrix has full row rank but cannot be injective
        x1 = ex.var(1)
        words = [ex.scalar(1), x1, ex.mul(x1, x1)]
        X = MatrixTuple((np.array([[0.5]]),), hermitian=True)
        table = gnsbasis.EvalTable(X, 1e-9)
        assert not psatz._separates(words, [table], 1e-9)
        assert psatz._separates(words[:1], [table], 1e-9)

    def test_level2_memory(self):
        # candidates grow from the kept basis, not from every word of V_5
        tracemalloc.start()
        try:
            optimize_eig(ex.parse("x1*inv(3-x1)*inv(3-x1)", d=1), INTERVAL,
                         direction="sup", level=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


def _ref_rows(basis, L, tables, mu_sign, target):
    """The equality rows built one (s, t) entry at a time, as lists of
    (H coefficient, G coefficient, free part, rhs), from values of a fresh
    walk: the loop that the stacked assembly replaces, kept as its
    reference."""
    N = basis.dim
    rows = ([], [], [], [])
    for table in tables:
        X = table.X
        n = X.rows
        W = [eval_expr(w, X) for w in basis.exprs]
        tgt = eval_expr(target, X)
        if L is not None:
            e = L.size
            LX = affine_eval(L, X)
            Lb = [[LX[i * n:(i + 1) * n, j * n:(j + 1) * n] for j in range(e)]
                  for i in range(e)]
        cols = [np.array([Wa[:, s] for Wa in W]).T for s in range(n)]
        for s, Cs in enumerate(cols):
            for t, Ct in enumerate(cols):
                T = Cs.conj().T @ Ct
                A1, A2 = (T.T + T.conj()) / 2, (T.T - T.conj()) / 2j
                B1 = B2 = None
                if L is not None:
                    Q = np.zeros((N * e, N * e), dtype=complex)
                    for i in range(e):
                        for j in range(e):
                            Q[i::e, j::e] = Cs.conj().T @ Lb[i][j] @ Ct
                    B1, B2 = (Q.T + Q.conj()) / 2, (Q.T - Q.conj()) / 2j
                c = tgt[s, t]
                delta = 1.0 if s == t else 0.0
                re_free = np.zeros(0) if mu_sign is None else np.array([mu_sign * delta])
                im_free = np.zeros(0) if mu_sign is None else np.array([0.0])
                for row in ((A1, B1, re_free, c.real), (A2, B2, im_free, c.imag)):
                    for acc, val in zip(rows, row):
                        acc.append(val)
    return rows


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the same interval as an LMI whose off-diagonal blocks differ, so that a
# transposed block index shows in the rows
TWISTED = HomogeneousPencil((np.eye(2), np.array([[0.0, 1j], [-1j, 0.0]])))


class TestRows:
    @pytest.mark.parametrize("text", ["x1*x1", "inv(2-x1)"])
    @pytest.mark.parametrize("lmi", [None, INTERVAL, TWISTED])
    @pytest.mark.parametrize("direction", [None, "sup", "inf"])
    def test_stacks_match_row_loop(self, text, lmi, direction):
        r = ex.parse(text, d=1)
        target, mu_sign, _ = psatz._objective(r, direction)
        _, L, _, basis, tables, _ = psatz._setup(r, lmi, 1, 0)
        A, B, free, rhs = psatz._assemble_rows(basis, L, tables, mu_sign, target)
        hmats, gmats, frees, rhss = _ref_rows(basis, L, tables, mu_sign, target)
        assert _same_bits(A, np.array(hmats))
        if lmi is None:
            assert B is None
        else:
            assert _same_bits(B, np.array(gmats))
        assert _same_bits(free, np.array(frees))
        assert _same_bits(rhs, np.array(rhss))

    def test_one_residual_cut(self, monkeypatch):
        # a pruned system consistent to 5e-7 is within RESIDUAL_TOL for
        # certification and bounds alike
        prune = psatz._prune_rows

        def loose(*args, **kwargs):
            keep, _ = prune(*args, **kwargs)
            return keep, 5e-7

        monkeypatch.setattr(psatz, "_prune_rows", loose)
        assert certify_qm(ex.parse("x1*x1", d=1), level=1, seed=0) is not None
        out = optimize_eig(ex.var(1), INTERVAL, direction="sup", level=1, seed=0)
        assert out.status == "optimal" and out.certificate is not None

    def test_tol_reaches_the_pivot_cut(self, monkeypatch):
        prune, cuts = psatz._prune_rows, []

        def spy(*args):
            cuts.append(args[4:])
            return prune(*args)

        monkeypatch.setattr(psatz, "_prune_rows", spy)
        certify_qm(ex.parse("x1*x1", d=1), level=1, seed=0, tol=1e-6)
        assert cuts == [(1e-6,)]

    def test_tol_reaches_sample_admission(self, monkeypatch):
        # the hermitian check, the SDP samples and the held-out samples all
        # decide singular inverses at tol
        tols = []

        def spy(name, fn):
            def wrapper(roots, X, tol=psatz.RANK_TOL, *args):
                tols.append((name, tol))
                return fn(roots, X, tol, *args)
            return wrapper

        monkeypatch.setattr(psatz, "eval_expr", spy("check", psatz.eval_expr))
        monkeypatch.setattr(gnsbasis, "eval_exprs", spy("table", gnsbasis.eval_exprs))
        validate, held = psatz._validate, []

        def validated(*args):
            held.append(len(tols))
            return validate(*args)

        monkeypatch.setattr(psatz, "_validate", validated)
        r = ex.parse("inv(2-x1)", d=1)
        assert certify_qm(r, INTERVAL, level=1, seed=0, tol=1e-6) is not None
        assert held and len(tols) > held[0]
        assert {name for name, _ in tols} == {"check", "table"}
        assert all(tol == 1e-6 for _, tol in tols)


def _level3_sup_rows(text, monkeypatch):
    """The level-3 interval --sup system of text as _build_problem prunes it:
    (residual it reports, rows A, B, free, rhs, kept indices)."""
    prune, seen = psatz._prune_rows, []

    def spy(*args):
        out = prune(*args)
        seen.append((*args[:4], out[0]))
        return out

    monkeypatch.setattr(psatz, "_prune_rows", spy)
    r = ex.parse(text, d=1)
    target, mu_sign, obj_free = psatz._objective(r, "sup")
    _, L, _, basis, tables, _ = psatz._setup(r, INTERVAL, 3, 0)
    _, resid = psatz._build_problem(basis, L, tables, target, mu_sign, obj_free,
                                    psatz.RANK_TOL)
    return (resid, *seen[0])


class TestConsistencyResidual:
    def test_consistent_system_reads_zero(self, monkeypatch):
        resid, *_ = _level3_sup_rows("inv(2-x1)", monkeypatch)
        assert resid <= 1e-9

    def test_reads_the_violation_of_the_dropped_rows(self, monkeypatch):
        # the pivot cut keeps 20 of the 26 independent rows; the residual is
        # how far the kept rows' own solution misses the other six
        resid, A, B, free, rhs, keep = _level3_sup_rows("inv(1+x1*x1)", monkeypatch)
        assert resid > psatz.RESIDUAL_TOL
        Rmat = np.concatenate([psatz._vech(A), psatz._vech(B), free], axis=1)
        x = np.linalg.lstsq(Rmat[keep], rhs[keep], rcond=None)[0]
        scale = 1 + np.linalg.norm(rhs)
        assert np.linalg.norm(Rmat[keep] @ x - rhs[keep]) / scale < 1e-9
        assert resid == pytest.approx(np.linalg.norm(Rmat @ x - rhs) / scale, rel=1e-3)

    def test_rank_zero_system(self):
        rhs = np.array([3.0, 4.0, 0.0])
        keep, resid = psatz._prune_rows(np.zeros((3, 2, 2), dtype=complex), None,
                                        np.zeros((3, 0)), rhs)
        assert keep == []
        assert resid == pytest.approx(5 / 6, rel=1e-15)


class TestExtract:
    def test_squares_are_the_one_component_case(self):
        cert = certify_qm(ex.parse("2 - x1*x1", d=1), INTERVAL, level=1, seed=0)
        squares = psatz._extract(cert.H, cert.basis, 1, psatz.EIG_TOL)
        assert cert.squares == tuple(s for s, in squares)
        assert all(len(v) == INTERVAL.size for v in cert.vectors)

    def test_small_coefficients_dropped_relative_to_the_largest(self):
        basis = build_basis(build_R(ex.parse("x1", d=1)), 1, seed=0)
        N = basis.dim
        h = np.zeros(2 * N)
        h[0], h[1], h[2] = 1.0, 1e-6, 1e-10  # scaled by 2 below
        (vec,) = psatz._extract(4 * np.outer(h, h), basis, 2, psatz.EIG_TOL)
        # 2e-10 is under 1e-9 * 2 and goes; 2e-6 stays in the second entry
        assert ex.variables_used(vec[0]) == set()
        assert abs(vec[0].value) == pytest.approx(2.0)
        assert vec[1] != ex.scalar(0)


class TestBuildSdp:
    def test_shapes(self):
        prob = build_sdp(ex.parse("x1*x1", d=1), level=1, seed=0)
        assert prob.nfree == 0
        assert prob.m > 0

    def test_directions_add_free_scalar(self):
        prob = build_sdp(ex.var(1), INTERVAL, level=1, direction="sup", seed=0)
        assert prob.nfree == 1

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            build_sdp(ex.var(1), direction="both")


class TestCheckIdentity:
    def test_equal(self):
        lhs = ex.parse("x1*x2 + x2*x1", d=2)
        rhs = ex.parse("x2*x1 + x1*x2", d=2)
        passed, worst, compared = check_identity(lhs, rhs)
        assert passed and worst <= 1e-8 and compared == 50

    def test_noncommutative_difference_detected(self):
        passed, worst, _ = check_identity(ex.parse("x1*x2", d=2),
                                          ex.parse("x2*x1", d=2))
        assert not passed and worst > 1e-3

    def test_inverse_identity(self):
        # inv(1 - x1) - 1 = inv(1 - x1) x1
        lhs = ex.parse("inv(1-x1) - 1", d=1)
        rhs = ex.parse("inv(1-x1)*x1", d=1)
        passed, worst, _ = check_identity(lhs, rhs)
        assert passed, worst

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            check_identity(ex.var(1), ex.var(1), mode="weird")
