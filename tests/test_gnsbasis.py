"""Subexpression sets, evaluation inner products, and function bases."""

import numpy as np
import pytest

from ncrat import expr as ex
from ncrat import gnsbasis, psatz
from ncrat.gnsbasis import (
    EvalInnerProduct,
    SamplingError,
    SingularGramError,
    build_R,
    build_basis,
    default_weights,
    inner_product,
    sample_points,
)
from ncrat.numkernel import RANK_TOL, MatrixTuple, hermitian_eig, random_tuple
from ncrat.realization import eval_expr, eval_exprs


def _ref_words(R, level):
    """Every product of at most `level` elements of R, deduped by node, by
    increasing length: the full enumeration the sweep replaces, kept as its
    reference."""
    one = R.exprs[0]
    seen = {one}
    words = [one]
    frontier = [one]
    for _ in range(level):
        nxt = []
        for w in frontier:
            for q in R.exprs[1:]:
                prod = q if w is one else ex.mul(w, q)
                if prod in seen:
                    continue
                seen.add(prod)
                words.append(prod)
                nxt.append(prod)
        frontier = nxt
    return words


def _ref_greedy_select(A, tol=RANK_TOL):
    """In-order greedy column selection over the full word matrix, relative
    to the largest column norm of all words."""
    norms = np.linalg.norm(A, axis=0)
    scale = float(np.max(norms)) if A.size else 0.0
    if scale == 0.0:
        return []
    Q = np.zeros((A.shape[0], 0), dtype=complex)
    keep = []
    for j in range(A.shape[1]):
        c = A[:, j].astype(complex)
        for _ in range(2):
            c = c - Q @ (Q.conj().T @ c)
        nrm = np.linalg.norm(c)
        if nrm > tol * scale:
            keep.append(j)
            Q = np.hstack([Q, (c / nrm).reshape(-1, 1)])
    return keep


class TestBuildR:
    def test_inverse_example(self):
        R = build_R(ex.parse("inv(1-x1)", d=1))
        texts = {ex.to_str(q) for q in R.exprs}
        assert texts == {ex.to_str(q) for q in (
            ex.scalar(1), ex.var(1), ex.parse("1-x1", d=1),
            ex.parse("inv(1-x1)", d=1))}
        assert R.exprs[0] == ex.scalar(1)

    def test_polynomial(self):
        R = build_R(ex.parse("x1*x2", d=2))
        texts = [ex.to_str(q) for q in R.exprs]
        assert texts[0] == "1"
        # closed under the involution: x2*x1 appears via r*
        assert ex.to_str(ex.parse("x2*x1", d=2)) in texts
        assert len(R) == 5

    def test_scalar_multiples_stripped(self):
        R = build_R(ex.parse("2*x1", d=1))
        assert [ex.to_str(q) for q in R.exprs] == ["1", "x1"]

    def test_deterministic_order(self):
        r = ex.parse("inv(1-x1) + x2", d=2)
        a = [ex.to_str(q) for q in build_R(r).exprs]
        b = [ex.to_str(q) for q in build_R(r).exprs]
        assert a == b


class TestInnerProduct:
    def _ip(self, rng, d=1):
        samples = tuple(random_tuple(d, n, n, mode="hermitian", rng=rng)
                        for n in (1, 2, 3))
        return EvalInnerProduct(samples, default_weights(samples))

    def test_unit_norm_is_weight_sum(self, rng):
        ip = self._ip(rng)
        one = ex.scalar(1)
        assert inner_product(one, one, ip) == pytest.approx(sum(ip.weights))

    def test_conjugate_symmetry(self, rng):
        ip = self._ip(rng, d=2)
        a, b = ex.var(1), ex.mul(ex.var(1), ex.var(2))
        assert inner_product(a, b, ip) == pytest.approx(
            np.conj(inner_product(b, a, ip)))

    def test_positive_on_nonzero(self, rng):
        ip = self._ip(rng)
        v = inner_product(ex.var(1), ex.var(1), ip)
        assert v.imag == pytest.approx(0.0)
        assert v.real > 0

    def test_weight_validation(self, rng):
        X = random_tuple(1, 2, 2, mode="hermitian", rng=rng)
        with pytest.raises(ValueError):
            EvalInnerProduct((X,), (-1.0,))
        with pytest.raises(ValueError):
            EvalInnerProduct((X,), (1.0, 1.0))


class TestSamplePoints:
    def test_in_common_domain(self, rng):
        R = build_R(ex.parse("inv(2-x1)", d=1))
        pts = sample_points(R, [1, 2], rng, per_size=2)
        assert len(pts) == 4
        assert [t.X.rows for t in pts] == [1, 1, 2, 2]

    def test_one_pass_over_R(self, monkeypatch):
        # R of a k-term sum holds every partial sum; evaluating each element
        # on its own would walk the shared prefix k times
        r = ex.parse("+".join(["x1"] * 200), d=1)
        R = build_R(r)
        calls = []

        def spy(*args, **kwargs):
            calls.append(None)
            return eval_expr(*args, **kwargs)

        monkeypatch.setattr(gnsbasis, "eval_expr", spy)
        pts = sample_points(R, [1, 2], np.random.default_rng(0), per_size=2)
        assert len(pts) == 4 and calls == []
        # the tables hold the same values as element-by-element evaluation
        for t in pts:
            assert all(q in t.memo for q in R.exprs)
            for q, val in zip(R.exprs, t.values(R.exprs)):
                assert np.array_equal(val, eval_expr(q, t.X))


    def test_norm_cap_rejects(self):
        inv = ex.parse("inv(x1)", d=1)
        R = build_R(inv)
        # 1e-7 I is invertible, but its inverse is over NORM_CAP
        small = MatrixTuple((1e-7 * np.eye(2),), hermitian=True)
        assert gnsbasis._admits(R, small, RANK_TOL) == (None, inv)
        table, blocking = gnsbasis._admits(R, MatrixTuple((np.eye(2),), hermitian=True),
                                           RANK_TOL)
        assert blocking is None and table is not None

    def test_empty_domain_raises_with_blocking_subexpression(self, rng):
        r = ex.parse("inv(x1-x1)", d=1)
        with pytest.raises(SamplingError) as exc:
            sample_points(build_R(r), [1], rng)
        assert exc.value.blocking is r
        assert "after 200 trials (blocking subexpression: inv(x1-x1))" in str(exc.value)


class TestBuildBasis:
    def test_monomials_dim(self):
        # over R = {1, x1}: words of length <= 2 span {1, x1, x1^2}
        R = build_R(ex.var(1))
        basis = build_basis(R, 2, seed=0)
        assert basis.dim == 3

    def test_inverse_level1_dim(self):
        # 1, x1, inv(1-x1) independent; 1-x1 is a combination
        R = build_R(ex.parse("inv(1-x1)", d=1))
        basis = build_basis(R, 1, seed=0)
        assert basis.dim == 3

    def test_level1_bounded_by_R(self, rng):
        R = build_R(ex.parse("x1*x2 + x2*x1", d=2))
        basis = build_basis(R, 1, seed=0)
        assert basis.dim <= len(R)

    def test_dim_stable_across_seeds(self):
        R = build_R(ex.parse("inv(1-x1)", d=1))
        dims = {build_basis(R, 2, seed=s).dim for s in range(5)}
        assert len(dims) == 1

    def test_prefix_property(self):
        R = build_R(ex.parse("inv(1-x1)", d=1))
        b1 = build_basis(R, 1, seed=0).exprs
        b2 = build_basis(R, 2, seed=0).exprs
        assert b2[:len(b1)] == b1

    def test_gram_positive_definite(self):
        R = build_R(ex.parse("x1*x2", d=2))
        basis = build_basis(R, 1, seed=3)
        g = basis.gram
        assert np.max(np.abs(g - g.conj().T)) <= 1e-12
        d = 1.0 / np.sqrt(np.abs(np.diag(g)))
        w, _ = hermitian_eig(g * np.outer(d, d))
        assert w[0] > 0

    def test_compute_gram_false(self):
        # build_basis no longer takes compute_gram: the level-3 basis over
        # {1, x1} is {1, x1, x1^2, x1^3}, and its Gram matrix is always formed
        R = build_R(ex.var(1))
        basis = build_basis(R, 3, seed=0)
        assert basis.dim == 4
        assert basis.gram.shape == (4, 4)

    def test_tables_are_the_samples(self):
        basis = build_basis(build_R(ex.parse("inv(2-x1)")), 2, seed=0)
        assert tuple(t.X for t in basis.tables) == basis.ip.samples

    def test_level_validation(self):
        with pytest.raises(ValueError):
            build_basis(build_R(ex.var(1)), 0)

    def test_json(self):
        basis = build_basis(build_R(ex.var(1)), 1, seed=0)
        obj = basis.to_json()
        assert obj["dim"] == basis.dim
        assert obj["exprs"][0] == "1"

    def test_singular_gram_is_not_a_sampling_failure(self):
        # with no rank tolerance, dependent words of x1*x1 enter the basis
        with pytest.raises(SingularGramError) as info:
            build_basis(build_R(ex.parse("x1*x1", d=1)), 2, tol=0.0)
        assert not isinstance(info.value, SamplingError)
        assert f"{info.value.dim}-element basis" in str(info.value)
        assert info.value.eig_min <= info.value.dim * np.finfo(float).eps


TABLE_CASES = ["inv(2-x1)", "x1*inv(3-x1)*inv(3-x1)", "inv(1+x1*x2)"]


class TestEvalTable:
    @pytest.mark.parametrize("text", TABLE_CASES)
    def test_words_bit_for_bit(self, text, rng):
        # values read from a table's memo, the words of V_3, the basis words
        # and the sup, inf and validation targets, are those of a fresh walk
        r = ex.parse(text)
        R = build_R(r)
        targets = [ex.neg(r), r, ex.sub(ex.scalar(0.25), r)]
        words = _ref_words(R, 3) + targets
        for t in sample_points(R, [1, 2, 3], rng, per_size=1):
            for w, val in zip(words, t.values(words)):
                assert np.array_equal(val, eval_expr(w, t.X)), ex.to_str(w)
        basis = build_basis(R, 2, seed=0)
        words = list(basis.exprs) + targets
        for t in basis.tables:
            for w, val in zip(words, t.values(words)):
                assert np.array_equal(val, eval_expr(w, t.X)), ex.to_str(w)

    # level 2 of the larger R would make the tree-evaluating reference slow
    @pytest.mark.parametrize("text, level", zip(TABLE_CASES, (2, 1, 1)))
    def test_gram_equals_inner_product(self, text, level):
        basis = build_basis(build_R(ex.parse(text)), level, seed=1)
        N = basis.dim
        ref = np.zeros((N, N), dtype=complex)
        for i in range(N):
            for j in range(i, N):
                ref[i, j] = inner_product(basis.exprs[j], basis.exprs[i], basis.ip)
                ref[j, i] = np.conj(ref[i, j])
        assert np.array_equal(basis.gram, ref)

    def test_words_not_evaluated_one_by_one(self, monkeypatch):
        # no node is evaluated twice at one table: not by the sweeps of
        # build_basis, and not by the psatz row assembly, which reads the
        # words and the target from the same memos
        twice, tables = [], []

        class Memo(dict):
            def __setitem__(self, node, val):
                if node in self:
                    twice.append(ex.to_str(node))
                super().__setitem__(node, val)

        class Table(gnsbasis.EvalTable):
            def __init__(self, X, tol):
                super().__init__(X, tol, Memo())
                tables.append(self)

        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return eval_expr(*args, **kwargs)

        monkeypatch.setattr(gnsbasis, "EvalTable", Table)
        monkeypatch.setattr(gnsbasis, "eval_expr", counted)
        r = ex.parse("inv(2-x1)", d=1)
        R = build_R(r)
        basis = build_basis(R, 5, seed=0)
        assert all(len(t.memo) > len(R) for t in basis.tables)
        _, L, _, basis, rows_tables, _ = psatz._setup(r, None, 2, 0)
        filled = [len(t.memo) for t in rows_tables]
        psatz._assemble_rows(basis, L, rows_tables, -1.0, ex.neg(r))
        # (-1)*r is the one node the rows add: r and -1, which 2-x1 holds,
        # were evaluated at admission
        assert [len(t.memo) for t in rows_tables] == [k + 1 for k in filled]
        assert tables and calls == [] and twice == []


# level 3 of inv(1+x1*x2) is left out for run time: the reference
# enumerates its 567 words
SWEEP_CASES = [(text, level) for text in ("inv(2-x1)", "x1*inv(3-x1)*inv(3-x1)",
                                          "inv(1+x1*x1)", "x1*x2+x2*x1")
               for level in (1, 2, 3)] + [("inv(1+x1*x2)", 1), ("inv(1+x1*x2)", 2)]


class TestSweep:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("text, level", SWEEP_CASES)
    def test_matches_full_enumeration(self, text, level, seed):
        R = build_R(ex.parse(text))
        basis = build_basis(R, level, seed=seed)
        words = _ref_words(R, level)
        vals = [eval_exprs(words, t.X) for t in basis.tables]
        M = np.array([np.concatenate([v[k].ravel() for v in vals])
                      for k in range(len(words))])
        ref = tuple(words[j] for j in _ref_greedy_select(M.T))
        assert set(basis.exprs) <= set(words)
        if (text, level, seed) != ("x1*inv(3-x1)*inv(3-x1)", 3, 2):
            assert basis.exprs == ref
            return
        # the reference's keep threshold is relative to the largest of all
        # 368 words, which the sweep never forms: it keeps 6 words here, the
        # sweep 9, and the column-normalized rank of all words is 9
        s = np.linalg.svd(M.T / np.linalg.norm(M, axis=1), compute_uv=False)
        rank = int(np.sum(s > RANK_TOL * s[0]))
        assert len(ref) <= basis.dim <= rank
