"""Subexpression sets, evaluation inner products, and function bases."""

import numpy as np
import pytest

from ncrat import expr as ex
from ncrat import gnsbasis
from ncrat.gnsbasis import (
    EvalInnerProduct,
    SamplingError,
    SingularGramError,
    _words,
    build_R,
    build_basis,
    default_weights,
    inner_product,
    sample_points,
)
from ncrat.numkernel import hermitian_eig, random_tuple
from ncrat.realization import eval_expr


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
        R = build_R(ex.var(1))
        basis = build_basis(R, 3, seed=0, compute_gram=False)
        assert basis.gram.size == 0
        assert basis.dim == 4

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
        R = build_R(ex.parse(text))
        tables = sample_points(R, [1, 2, 3], rng, per_size=1)
        for w, idx in _words(R, 3):
            for t in tables:
                assert np.array_equal(t.word(idx), eval_expr(w, t.X)), ex.to_str(w)

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
        # evaluations happen at admission only, at most one per element of R
        # per sample drawn, however many words V_5 has
        calls = {"eval": 0, "tuple": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gnsbasis, "eval_expr", counted("eval", gnsbasis.eval_expr))
        monkeypatch.setattr(gnsbasis, "random_tuple",
                            counted("tuple", gnsbasis.random_tuple))
        R = build_R(ex.parse("inv(2-x1)", d=1))
        build_basis(R, 5, seed=0)
        assert 0 < calls["eval"] <= len(R) * calls["tuple"]
