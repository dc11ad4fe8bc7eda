"""Schur-recursion inverses of expression matrices and domain widening."""

import gc

import numpy as np
import pytest

from ncrat import expr as ex
from ncrat import realization
from ncrat.domainrep import (
    NotInvertibleError,
    eval_expr_matrix,
    pencil_to_expr_matrix,
    schur_inverse_rep,
    widen_hdom,
)
from ncrat.numkernel import (
    RANK_TOL,
    MatrixTuple,
    full_rank,
    lu_solve,
    random_tuple,
)
from ncrat.realization import DomainError, eval_expr

from conftest import in_domain_tuple

# the 2x2 generic pencil [[x1, x2], [x3, x4]]
PENCIL4 = [np.zeros((2, 2))] + [m for m in (
    np.array([[1.0, 0], [0, 0]]), np.array([[0, 1.0], [0, 0]]),
    np.array([[0, 0], [1.0, 0]]), np.array([[0, 0], [0, 1.0]]),
)]
E2 = np.array([0.0, 1.0])

# the expressions of the widen benchmark, with their variable counts
WIDEN = (("inv(x1)", 1), ("inv(1-x1*x2)", 2), ("inv(x1+x2*x3)", 3),
         ("inv(x1)*x2*inv(x1)", 2), ("inv(x4 - x3*inv(x1)*x2)", 4))


def _tree_eval(r, X, tol=RANK_TOL):
    """Reference evaluator: a recursive walk of the expanded tree, with the
    same operations as eval_expr and no memo."""
    n = X.rows

    def rec(e):
        if e.kind == ex.SCALAR:
            return e.value * np.eye(n)
        if e.kind == ex.VAR:
            return np.array(X[e.index - 1])
        if e.kind == ex.ADD:
            return rec(e.children[0]) + rec(e.children[1])
        if e.kind == ex.MUL:
            return rec(e.children[0]) @ rec(e.children[1])
        val = rec(e.children[0])
        s = np.linalg.svd(val, compute_uv=False)
        if not s[-1] > tol * max(s[0], 1e-300):
            raise DomainError(e, float(s[-1]))
        return lu_solve(val, np.eye(val.shape[0]))

    return rec(r)


def _outcome(evaluate, w, X):
    try:
        return evaluate(w, X), None
    except DomainError as err:
        return None, err


def _singularized(X, j):
    """X with one eigenvalue of X_j set to zero (as the widen CLI probes)."""
    wv, V = np.linalg.eigh(X[j])
    wv[0] = 0.0
    mats = list(X.matrices)
    mats[j] = V @ np.diag(wv) @ V.conj().T
    return MatrixTuple(tuple(mats), hermitian=True)


def _generic_matrix():
    return ex.ExprMatrix(2, 2, (ex.var(1), ex.var(2), ex.var(3), ex.var(4)))


class TestEvalExprMatrix:
    def test_blockwise(self, rng):
        m = _generic_matrix()
        X = random_tuple(4, 3, 3, mode="hermitian", rng=rng)
        val = eval_expr_matrix(m, X)
        assert val.shape == (6, 6)
        assert np.allclose(val[:3, 3:], X[1])


    def test_entries_share_one_memo(self, monkeypatch, rng):
        s = schur_inverse_rep(_generic_matrix(), d=4)
        calls = []
        monkeypatch.setattr(realization, "full_rank",
                            lambda A, tol: calls.append(1) or full_rank(A, tol))
        eval_expr_matrix(s, random_tuple(4, 2, 2, mode="hermitian", rng=rng))
        assert 0 < len(calls) <= sum(e.kind == ex.INV for e in ex.postorder(*s.entries))


class TestMemoizedEval:
    @pytest.mark.parametrize("text, d", WIDEN)
    def test_widened_equals_tree_evaluation(self, text, d):
        w = widen_hdom(ex.parse(text, d=d), d=d)
        rng = np.random.default_rng(1)
        raised = 0
        for n in (1, 2, 3):
            X = random_tuple(d, n, n, mode="hermitian", rng=rng)
            zero = MatrixTuple((np.zeros((n, n)),) * d, hermitian=True)
            for Y in (X, _singularized(X, n % d), zero):
                want, want_err = _outcome(_tree_eval, w, Y)
                got, got_err = _outcome(eval_expr, w, Y)
                if want_err is None:
                    assert got_err is None and np.array_equal(got, want)
                else:
                    # the same first singular inverse, at the same sigma_min
                    assert got_err is not None
                    assert got_err.subexpr is want_err.subexpr
                    assert got_err.sigma_min == want_err.sigma_min
                    raised += 1
        # every widened expression but inv(1-x1*x2) is undefined at zero
        assert raised >= (0 if text == "inv(1-x1*x2)" else 3)

    def test_each_inverse_checked_once(self, monkeypatch, rng):
        w = widen_hdom(ex.parse("inv(x4 - x3*inv(x1)*x2)", d=4), d=4)
        calls = []
        monkeypatch.setattr(realization, "full_rank",
                            lambda A, tol: calls.append(1) or full_rank(A, tol))
        eval_expr(w, random_tuple(4, 2, 2, mode="hermitian", rng=rng))
        assert 0 < len(calls) <= sum(e.kind == ex.INV for e in ex.postorder(w))

    def test_intern_table_releases_dropped_trees(self):
        r = ex.parse("inv(x4 - x3*inv(x1)*x2)", d=4)
        gc.collect()
        baseline = len(ex._NODES)
        w = widen_hdom(r, d=4)
        assert len(ex._NODES) > baseline
        del w
        gc.collect()
        assert len(ex._NODES) == baseline


class TestSchurInverse:
    def test_scalar_entry(self):
        m = ex.ExprMatrix(1, 1, (ex.var(1),))
        s = schur_inverse_rep(m, d=1)
        X = MatrixTuple((np.array([[2.0]]),), hermitian=True)
        assert eval_expr_matrix(s, X)[0, 0] == pytest.approx(0.5)

    def test_inverse_property(self, rng):
        m = _generic_matrix()
        s = schur_inverse_rep(m, d=4)
        hits = 0
        for n in (1, 2, 3):
            for _ in range(8):
                X = random_tuple(4, n, n, mode="hermitian", rng=rng)
                try:
                    prod = eval_expr_matrix(s, X) @ eval_expr_matrix(m, X)
                except DomainError:
                    continue
                assert np.max(np.abs(prod - np.eye(2 * n))) <= 1e-8
                hits += 1
        assert hits >= 10

    def test_singular_matrix_rejected(self):
        m = ex.ExprMatrix(2, 2, (ex.var(1), ex.var(1), ex.var(1), ex.var(1)))
        with pytest.raises(NotInvertibleError):
            schur_inverse_rep(m, d=1)

    def test_nonsquare_rejected(self):
        m = ex.ExprMatrix(1, 2, (ex.var(1), ex.var(2)))
        with pytest.raises(ValueError):
            schur_inverse_rep(m, d=2)


class TestPencilToExprMatrix:
    def test_entries(self):
        m = pencil_to_expr_matrix(PENCIL4)
        assert m.at(0, 0) == ex.var(1)
        assert m.at(1, 1) == ex.var(4)

    def test_constant_term(self):
        m = pencil_to_expr_matrix([np.eye(1), np.array([[2.0]])])
        X = MatrixTuple((np.array([[3.0]]),), hermitian=True)
        assert eval_expr_matrix(m, X)[0, 0] == pytest.approx(7.0)


class TestWidenHdom:
    def test_same_function_on_common_domain(self, rng):
        r = ex.parse("inv(1 - x1*x2)", d=2)
        w = widen_hdom(r, d=2)
        hits = 0
        for n in (1, 2, 3):
            for _ in range(6):
                X = in_domain_tuple(r, 2, rng, n)
                if X is None:
                    continue
                try:
                    a = eval_expr(w, X)
                except DomainError:
                    continue
                b = eval_expr(r, X)
                assert np.max(np.abs(a - b)) <= 1e-7 * (1 + np.max(np.abs(b)))
                hits += 1
        assert hits >= 8

    def test_strictly_wider_with_minimal_pencil(self):
        # inv(x4 - x3 inv(x1) x2) via the pencil [[x1, x2], [x3, x4]]
        r = ex.parse("inv(x4 - x3*inv(x1)*x2)", d=4)
        w = widen_hdom(r, pencil_override=(E2, PENCIL4, E2), d=4)
        vals = (0.0, 1.0, 1.0, 1.0)
        X = MatrixTuple(tuple(np.array([[v]]) for v in vals), hermitian=True)
        with pytest.raises(DomainError):
            eval_expr(r, X)
        assert abs(eval_expr(w, X)[0, 0]) <= 1e-10

    def test_agreement_with_pencil_override(self, rng):
        r = ex.parse("inv(x4 - x3*inv(x1)*x2)", d=4)
        w = widen_hdom(r, pencil_override=(E2, PENCIL4, E2), d=4)
        hits = 0
        for _ in range(20):
            X = in_domain_tuple(r, 4, rng, 2)
            if X is None:
                continue
            try:
                a = eval_expr(w, X)
            except DomainError:
                continue
            b = eval_expr(r, X)
            assert np.max(np.abs(a - b)) <= 1e-7 * (1 + np.max(np.abs(b)))
            hits += 1
        assert hits >= 5
