"""Linear representations: construction sizes, evaluation agreement, domains."""

import json
import sys

import numpy as np
import pytest

from ncrat import expr as ex
from ncrat.cli import _load_pencil
from ncrat.numkernel import MatrixTuple, random_tuple
from ncrat.pencil import HomogeneousPencil, affine_eval
from ncrat.realization import (
    DomainError,
    build_realization,
    eval_expr,
    in_domain,
    realization_eval,
)

from conftest import in_domain_tuple, random_expr


class TestSizes:
    def test_scalar(self):
        assert build_realization(ex.scalar(3), 1).size == 1

    def test_variable(self):
        assert build_realization(ex.var(1), 1).size == 2

    def test_sum_and_product_add(self):
        a, b = ex.var(1), ex.var(2)
        assert build_realization(ex.add(a, b), 2).size == 4
        assert build_realization(ex.mul(a, b), 2).size == 4

    def test_inverse_adds_one(self):
        assert build_realization(ex.inv(ex.var(1)), 1).size == 3

    def test_recursive_size_formula(self, rng):
        def expected(e):
            if e.kind == ex.SCALAR:
                return 1
            if e.kind == ex.VAR:
                return 2
            if e.kind in (ex.ADD, ex.MUL):
                return expected(e.children[0]) + expected(e.children[1])
            return expected(e.children[0]) + 1

        for _ in range(20):
            e = random_expr(rng, 4, 3)
            assert build_realization(e, 3).size == expected(e)

    def test_deep_sum_without_recursion(self):
        # a 300-term x1+...+x1 is 300 levels deep
        r = ex.var(1)
        for _ in range(299):
            r = ex.add(r, ex.var(1))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            rep = build_realization(r, 1)
        finally:
            sys.setrecursionlimit(limit)
        assert rep.size == 600
        assert np.array_equal(rep.pencil.coeffs[0], np.eye(600))
        assert np.array_equal(rep.u, np.tile([1, 0], 300))
        assert np.array_equal(rep.v, np.tile([0, 1], 300))


class TestEvaluationAgreement:
    def test_against_tree_eval(self, rng):
        for _ in range(40):
            r = random_expr(rng, 4, 2)
            rep = build_realization(r, 2)
            X = in_domain_tuple(r, 2, rng, int(rng.integers(1, 4)))
            if X is None:
                continue
            try:
                got = realization_eval(rep, X)
            except DomainError:
                continue
            want = eval_expr(r, X)
            assert np.max(np.abs(got - want)) <= 1e-8 * (1 + np.max(np.abs(want)))

    def test_scalar_expression(self):
        rep = build_realization(ex.scalar(2 + 1j), 1)
        X = MatrixTuple((np.array([[0.5]], dtype=complex),), hermitian=False)
        assert realization_eval(rep, X)[0, 0] == pytest.approx(2 + 1j)


class TestDomain:
    def test_commutator_inverse_scalar_level(self, rng):
        r = ex.inv(ex.sub(ex.mul(ex.var(1), ex.var(2)),
                          ex.mul(ex.var(2), ex.var(1))))
        X1 = random_tuple(2, 1, 1, mode="hermitian", rng=rng)
        ok, _ = in_domain(r, X1)
        assert not ok
        with pytest.raises(DomainError):
            eval_expr(r, X1)
        X2 = random_tuple(2, 2, 2, mode="hermitian", rng=rng)
        ok2, smin = in_domain(r, X2)
        assert ok2 and smin > 0

    def test_domain_error_names_subexpression(self, rng):
        inner = ex.sub(ex.var(1), ex.var(1))
        r = ex.add(ex.inv(inner), ex.var(1))
        X = random_tuple(1, 2, 2, mode="hermitian", rng=rng)
        with pytest.raises(DomainError) as info:
            eval_expr(r, X)
        assert info.value.subexpr == ex.inv(inner)

    def test_domain_error_message_built_on_demand(self, monkeypatch):
        r = ex.parse("2+inv(x1)", d=1)
        X = MatrixTuple((np.zeros((2, 2)),), hermitian=True)
        to_str = ex.to_str
        calls = []
        monkeypatch.setattr(ex, "to_str", lambda e: calls.append(e) or to_str(e))
        with pytest.raises(DomainError) as info:
            eval_expr(r, X)
        assert calls == []  # raising formats nothing
        err = info.value
        assert err.subexpr is ex.parse("inv(x1)") and err.sigma_min == 0.0
        assert str(err) == "singular inverse at subexpression inv(x1) (sigma_min 0.000e+00)"
        assert calls == [err.subexpr]


class TestPencil:
    def test_affine_pencil_eval(self, rng):
        # affine pencils keep the constant M0 as coefficient 0
        M = HomogeneousPencil((np.eye(2), np.array([[0, 1], [0, 0]], dtype=float)))
        X = random_tuple(1, 3, 3, mode="hermitian", rng=rng)
        out = affine_eval(M, X)
        assert out.shape == (6, 6)
        assert np.allclose(out[:3, 3:], X[0])

    def test_json_round_trip(self, tmp_path):
        # the "M" format written by a realization reads back as the same pencil
        rep = build_realization(ex.parse("inv(1 - x1*x2)", d=2))
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(rep.to_json()))
        M2, _ = _load_pencil(str(path), "M")
        for a, b in zip(rep.pencil.coeffs, M2.coeffs):
            assert np.array_equal(a, b)

    def test_realization_json_fields(self):
        rep = build_realization(ex.inv(ex.var(1)), 1)
        obj = rep.to_json()
        assert obj["e"] == rep.size
        assert len(obj["M"]) == 2
        assert len(obj["u"]) == rep.size
