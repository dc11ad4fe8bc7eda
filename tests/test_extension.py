"""Completion theorems: size bounds, side/square extensions, domain extensions."""

import numpy as np
import pytest

from ncrat import expr as ex
from ncrat import extension
from ncrat.extension import (
    BoundExhaustedError,
    HypothesisError,
    eps_assembly,
    extend_hermitian,
    extend_nonhermitian,
    extend_side,
    extend_square,
    remark_bound,
)
from ncrat.numkernel import (
    RANK_TOL,
    MatrixTuple,
    herm_deviation,
    random_tuple,
    sigma_extremes,
)
from ncrat.pencil import HomogeneousPencil, affine_eval, rank_conditions, rect_eval
from ncrat.realization import build_realization, in_domain

# identity + swap coefficients: full pencil on 2 variables
L2 = HomogeneousPencil((np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])))
NOT_FULL = HomogeneousPencil((np.array([[1.0, 0.0], [1.0, 0.0]]),
                              np.array([[0.0, 1.0], [0.0, 1.0]])))


class TestRemarkBound:
    def test_small_values(self):
        assert remark_bound(1, 1, 1) == 2
        assert remark_bound(2, 1, 1) == 28

    def test_clamped_below_at_m(self):
        assert remark_bound(0, 0, 3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            remark_bound(-1, 0, 0)


class TestExtendSide:
    def test_square_input_trivial(self, rng):
        X = random_tuple(2, 2, 2, mode="generic", rng=rng)
        side = extend_side(L2, X, seed=0)
        assert side.n == 0
        comp = side.completed(X)
        assert comp.rows == comp.cols == 2
        smin, smax = sigma_extremes(rect_eval(L2, comp))
        assert smin > 1e-9 * smax

    def test_tall_input(self, rng):
        X = random_tuple(2, 3, 1, mode="generic", rng=rng)
        side = extend_side(L2, X, seed=1)
        comp = side.completed(X)
        assert comp.rows == comp.cols == 1 + side.n + 2
        # original columns kept in place
        assert np.array_equal(comp[0][:3, :1], X[0])
        smin, smax = sigma_extremes(rect_eval(L2, comp))
        assert smin > 1e-9 * smax

    def test_wide_input_rejected(self, rng):
        X = random_tuple(2, 1, 2, mode="generic", rng=rng)
        with pytest.raises(HypothesisError):
            extend_side(L2, X, seed=0)

    def test_not_full_pencil_rejected(self, rng):
        X = random_tuple(2, 2, 1, mode="generic", rng=rng)
        with pytest.raises(HypothesisError):
            extend_side(NOT_FULL, X, seed=0)

    def test_rank_deficient_input_rejected(self):
        X = MatrixTuple((np.zeros((2, 1)), np.zeros((2, 1))))
        with pytest.raises(HypothesisError):
            extend_side(L2, X, seed=0)


def _square_instance(rng, ell=2, m=1):
    for _ in range(50):
        Y = random_tuple(2, ell, ell, mode="generic", rng=rng)
        Yp = random_tuple(2, m, ell, mode="generic", rng=rng)
        Ypp = random_tuple(2, ell, m, mode="generic", rng=rng)
        col_ok, row_ok, _ = rank_conditions(L2, Y, Yp, Ypp)
        if col_ok and row_ok:
            return Y, Yp, Ypp
    raise AssertionError("no rank-condition instance found")


class TestExtendSquare:
    def test_sampling_mode(self, rng):
        Y, Yp, Ypp = _square_instance(rng)
        sq = extend_square(L2, Y, Yp, Ypp, mode="sampling", seed=0)
        assert Yp.rows <= sq.n <= sq.bound_used
        comp = sq.completed(Y, Yp, Ypp)
        smin, smax = sigma_extremes(rect_eval(L2, comp))
        assert smin > 1e-9 * smax
        # input blocks preserved
        assert np.array_equal(comp[0][:2, :2], Y[0])
        assert np.array_equal(comp[1][2:3, :2], Yp[1])
        assert np.array_equal(comp[0][:2, 2:3], Ypp[0])

    def test_blocks_mode_and_eps_family(self, rng):
        Y, Yp, Ypp = _square_instance(rng)
        sq = extend_square(L2, Y, Yp, Ypp, mode="blocks", seed=0)
        p = sq.parts
        assert p
        ell, m = Y.rows, Yp.rows
        w1, k1, w2, k2 = p["Ap"].cols, p["Cp"].rows, p["App"].rows, p["Cpp"].cols
        T1 = eps_assembly(Y, Yp, Ypp, p, 1.0)
        for eps in (0.5, 1.0, 2.0):
            T = eps_assembly(Y, Yp, Ypp, p, eps)
            smin, smax = sigma_extremes(rect_eval(L2, T))
            assert smin > 1e-9 * smax, f"eps={eps}"
            # eps scales the eps = 1 tuple by diag(I_l, I_w2, eps I_l, eps I_m,
            # eps I_k1) on the left and diag(I_l, I_w1, eps I_l, eps I_m, eps I_k2)
            # on the right
            Dl = np.diag(np.repeat([1.0, 1.0, eps, eps, eps], [ell, w2, ell, m, k1]))
            Dr = np.diag(np.repeat([1.0, 1.0, eps, eps, eps], [ell, w1, ell, m, k2]))
            for j in range(Y.d):
                assert np.array_equal(T[j], Dl @ T1[j] @ Dr), f"eps={eps}"

    @pytest.mark.parametrize("grown", [0, 1])  # column, row instance
    def test_blocks_mode_equalizes_sizes(self, rng, monkeypatch, grown):
        # one one-sided completion comes back one size larger than it would;
        # the other is redone at that size, and the assembly stays invertible
        Y, Yp, Ypp = _square_instance(rng)
        forced = []

        def side(L, X, seed=0, trials=16, tol=RANK_TOL, forced_n=None):
            forced.append(forced_n)
            out = extend_side(L, X, seed=seed, trials=trials, tol=tol, forced_n=forced_n)
            if len(forced) == grown + 1:
                out = extend_side(L, X, seed=seed, trials=trials, tol=tol,
                                  forced_n=out.n + 1)
            return out

        monkeypatch.setattr(extension, "extend_side", side)
        p = extend_square(L2, Y, Yp, Ypp, mode="blocks", seed=0).parts
        k = forced[2]
        assert forced[:2] == [None, None] and k is not None and len(forced) == 3
        assert p["Cp"].rows == p["Cpp"].cols == k
        for eps in (1.0, 0.5):
            smin, smax = sigma_extremes(rect_eval(L2, eps_assembly(Y, Yp, Ypp, p, eps)))
            assert smin > 1e-9 * smax, f"eps={eps}"

    def test_rank_conditions_enforced(self):
        Z = MatrixTuple((np.zeros((2, 2)), np.zeros((2, 2))))
        Zp = MatrixTuple((np.zeros((1, 2)), np.zeros((1, 2))))
        Zpp = MatrixTuple((np.zeros((2, 1)), np.zeros((2, 1))))
        with pytest.raises(HypothesisError):
            extend_square(L2, Z, Zp, Zpp, seed=0)

    def test_unknown_mode(self, rng):
        Y, Yp, Ypp = _square_instance(rng)
        with pytest.raises(ValueError):
            extend_square(L2, Y, Yp, Ypp, mode="bogus")


class TestExtendHermitian:
    @pytest.mark.parametrize("text", ["inv(x1)", "inv(1-x1*x2)"])
    def test_extension_properties(self, text, rng):
        r = ex.parse(text, d=2)
        for _ in range(5):
            X = random_tuple(2, 2, 2, mode="hermitian", rng=rng)
            Y = random_tuple(2, 1, 2, mode="generic", rng=rng)
            try:
                out = extend_hermitian(r, X, Y, seed=int(rng.integers(1000)))
            except HypothesisError:
                continue
            n = out.Z.rows
            Xt = out.Xtilde
            # X block kept exactly
            for j in range(2):
                assert np.array_equal(Xt[j][:2, :2], X[j])
                assert herm_deviation(Xt[j]) <= 1e-12
                ey = out.E @ np.vstack([Y[j], np.zeros((n - 1, 2))])
                assert np.max(np.abs(Xt[j][2:, :2] - ey)) <= 1e-12
            ok, _ = in_domain(r, Xt, d=2)
            assert ok
            return
        raise AssertionError("no admissible (X, Y) instance found")

    def test_in_domain_without_y(self, rng):
        r = ex.parse("inv(2-x1)", d=1)
        X = random_tuple(1, 2, 2, mode="hermitian", rng=rng)
        X = MatrixTuple((0.4 * X[0],), hermitian=True)
        out = extend_hermitian(r, X, None, seed=0)
        assert out.Z.rows == 0
        assert np.array_equal(out.Xtilde[0], X[0])

    def test_nonhermitian_input_rejected(self, rng):
        X = random_tuple(1, 2, 2, mode="generic", rng=rng)
        with pytest.raises(HypothesisError):
            extend_hermitian(ex.parse("inv(x1)", d=1), X, None, seed=0)

    def test_empty_domain_without_y_rejected(self):
        r = ex.parse("inv(x1)", d=1)
        X = MatrixTuple((np.zeros((1, 1)),), hermitian=True)
        with pytest.raises(HypothesisError):
            extend_hermitian(r, X, None, seed=0)

    def test_realization_rank_conditions_enforced(self):
        # M(0) of inv(x1) has rank 2 of 3, so neither [(I, X); (0, Y)] nor
        # [(I, X)  (0, Y*)] gives full rank at X = Y = 0
        r = ex.parse("inv(x1)", d=1)
        X = MatrixTuple((np.zeros((1, 1)),), hermitian=True)
        Y = MatrixTuple((np.zeros((1, 1)),))
        with pytest.raises(HypothesisError,
                           match=r"realization pencil rank conditions fail at \(X, Y\)"):
            extend_hermitian(r, X, Y, seed=0)


class TestExtendNonhermitian:
    def test_rectangular_completion(self, rng):
        r = ex.parse("inv(x1)", d=2)
        for _ in range(20):
            X = random_tuple(2, 2, 1, mode="generic", rng=rng)
            try:
                cand = extend_nonhermitian(r, X, seed=0)
            except HypothesisError:
                continue
            assert cand.rows == cand.cols
            assert np.array_equal(cand[0][:2, :1], X[0])
            ok, _ = in_domain(r, cand, d=2)
            assert ok
            return
        raise AssertionError("no admissible rectangular instance found")

    def test_wide_rejected(self, rng):
        X = random_tuple(1, 1, 2, mode="generic", rng=rng)
        with pytest.raises(HypothesisError):
            extend_nonhermitian(ex.parse("inv(x1)", d=1), X, seed=0)

    def test_rank_deficient_rejected(self):
        X = MatrixTuple((np.zeros((2, 1)),))
        with pytest.raises(HypothesisError, match="column-rank deficient"):
            extend_nonhermitian(ex.parse("inv(x1)", d=1), X, seed=0)

    def test_tol_reaches_domain_test(self):
        # the default tolerance accepts a completion at sigma ratio 0.063;
        # tol = 0.12 must reject it and search on
        r = ex.parse("inv(x1)", d=1)
        X = random_tuple(1, 2, 1, seed=0)
        pencil = build_realization(r, 1).pencil
        for tol, above in ((1e-9, False), (0.12, True)):
            T = extend_nonhermitian(r, X, tol=tol)
            smin, smax = sigma_extremes(affine_eval(pencil, T))
            assert (smin > 0.12 * smax) == above, f"tol={tol}"
