"""Expression AST, parser, printer, involution and complexity."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncrat import expr as ex
from ncrat.numkernel import MatrixTuple, random_tuple
from ncrat.realization import eval_expr, eval_exprs

from conftest import random_expr


def exprs(max_depth=4, d=3):
    """Hypothesis strategy for random expression trees."""
    scalars = st.one_of(
        st.integers(-3, 3).map(lambda k: ex.scalar(k)),
        st.just(ex.scalar(1j)),
    )
    leaves = st.one_of(
        scalars,
        st.integers(1, d).map(ex.var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: ex.add(*ab)),
            st.tuples(children, children).map(lambda ab: ex.mul(*ab)),
            st.tuples(children, children).map(lambda ab: ex.sub(*ab)),
            children.map(lambda a: ex.inv(ex.add(a, ex.scalar(2)))),
        )

    return st.recursive(leaves, extend, max_leaves=8)


class TestConstruction:
    def test_scalar_folding(self):
        assert ex.add(ex.scalar(2), ex.scalar(3)) == ex.scalar(5)
        assert ex.mul(ex.scalar(2), ex.scalar(-1)) == ex.scalar(-2)
        assert ex.inv(ex.scalar(4)) == ex.scalar(0.25)

    def test_inv_zero_scalar_degenerate(self):
        # not folded: inv(0) is a formal expression with empty domain
        e = ex.inv(ex.scalar(0))
        assert e.kind == ex.INV

    def test_sub_desugars(self):
        e = ex.sub(ex.var(1), ex.var(2))
        assert e.kind == ex.ADD
        assert e.children[1].kind == ex.MUL
        assert e.children[1].children[0] == ex.scalar(-1)

    def test_var_index_positive(self):
        with pytest.raises(ValueError):
            ex.var(0)


class TestHashConsing:
    def test_equal_constructions_are_one_node(self):
        a = ex.parse("x1*inv(2-x2)", d=2)
        assert ex.parse("x1 * inv(2 - x2)", d=2) is a
        assert ex.mul(ex.var(1), ex.inv(ex.sub(ex.scalar(2), ex.var(2)))) is a

    def test_signed_zeros_folded(self):
        z = ex.scalar(-0.0)
        assert z is ex.scalar(0.0) and ex.scalar(complex(-0.0, -0.0)) is z
        assert not np.signbit(z.value.real) and not np.signbit(z.value.imag)

    def test_equality_is_identity(self):
        assert ex.Expr.__eq__ is object.__eq__
        assert ex.Expr.__hash__ is object.__hash__

    def test_memo_over_folded_zeros(self):
        # a node-keyed memo cannot give 0.0 the value of -0.0, or the reverse
        X = MatrixTuple((np.array([[0.5]]),), hermitian=True)
        vals = eval_exprs([ex.scalar(0.0), ex.scalar(-0.0)], X)
        assert len(vals) == 2
        assert not any(np.signbit(v.real).any() or np.signbit(v.imag).any() for v in vals)

    def test_nodes_immutable_and_factory_only(self):
        e = ex.var(1)
        with pytest.raises(AttributeError):
            e.index = 2
        with pytest.raises(TypeError):
            ex.Expr(ex.VAR, index=1)

    def test_copies_are_the_interned_node(self):
        e = ex.parse("inv(x1)*x2+3", d=2)
        assert copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e

    def test_deep_sum(self):
        # recursion on depth would fail here: every walk is iterative
        r = ex.parse("+".join(["x1"] * 5000), d=1)
        X = MatrixTuple((np.array([[0.5]]),), hermitian=True)
        assert eval_expr(r, X)[0, 0] == 2500
        assert ex.parse(ex.to_str(r), d=1) is r
        assert ex.tau(r) == 1
        assert ex.variables_used(r) == {1}
        assert len(ex.postorder(r)) == 5000

    def test_first_singular_inverse_in_tree_order(self):
        from ncrat.realization import DomainError
        e = ex.parse("inv(x3)*inv(x2) + inv(x1)", d=3)
        zero = MatrixTuple((np.zeros((2, 2)),) * 3, hermitian=True)
        with pytest.raises(DomainError) as err:
            eval_expr(e, zero)
        assert err.value.subexpr is ex.inv(ex.var(3))

    def test_deep_structural_equality(self):
        # chains from a 0.0 and a -0.0 leaf are structurally equal: one node
        r0, r1 = ex.scalar(0.0), ex.scalar(-0.0)
        for _ in range(5000):
            r0, r1 = ex.add(r0, ex.var(1)), ex.add(r1, ex.var(1))
        assert r0 is r1
        assert ex.add(r1, ex.var(1)) is not r0


class TestTau:
    def test_base_cases(self):
        assert ex.tau(ex.scalar(5)) == 0
        assert ex.tau(ex.var(2)) == 1

    def test_sum_is_max(self):
        assert ex.tau(ex.add(ex.var(1), ex.var(2))) == 1
        assert ex.tau(ex.add(ex.mul(ex.var(1), ex.var(2)), ex.var(1))) == 2

    def test_product_is_sum(self):
        assert ex.tau(ex.mul(ex.var(1), ex.var(2))) == 2

    def test_inverse_doubles(self):
        assert ex.tau(ex.inv(ex.mul(ex.var(1), ex.var(2)))) == 4
        assert ex.tau(ex.inv(ex.inv(ex.var(1)))) == 4

    @given(exprs())
    @settings(max_examples=60, deadline=None)
    def test_involution_preserves_tau(self, e):
        assert ex.tau(ex.involution(e)) == ex.tau(e)


def _ref_involution(r):
    """The involution by recursion on depth, kept as a reference."""
    if r.kind == ex.SCALAR:
        return ex.scalar(r.value.conjugate())
    if r.kind == ex.VAR:
        return r
    if r.kind == ex.ADD:
        return ex.add(_ref_involution(r.children[0]), _ref_involution(r.children[1]))
    if r.kind == ex.MUL:
        a, b = r.children
        if a.kind == ex.SCALAR or b.kind == ex.SCALAR:
            return ex.mul(_ref_involution(a), _ref_involution(b))
        return ex.mul(_ref_involution(b), _ref_involution(a))
    return ex._node(ex.INV, (_ref_involution(r.children[0]),))


class TestInvolution:
    @given(exprs())
    @settings(max_examples=60, deadline=None)
    def test_same_node_as_recursive_reference(self, e):
        assert ex.involution(e) is _ref_involution(e)

    def test_shared_random_trees_match_reference(self, rng):
        for _ in range(30):
            e = random_expr(rng, 5, 3)
            e = ex.add(ex.mul(ex.scalar(2 - 1j), e), ex.mul(e, ex.inv(e)))
            assert ex.involution(e) is _ref_involution(e)

    def test_deep_sum(self):
        r = ex.parse("+".join(["x1"] * 5000), d=1)
        assert ex.involution(r) is r

    def test_hermitian_with_real_coefficients_is_its_adjoint(self):
        # conjugating a real scalar gives -0.0 imaginary parts, folded away
        r = ex.parse("2*x1+inv(3-x1*x1)-0.5", d=1)
        assert ex.involution(r) is r

    @given(exprs())
    @settings(max_examples=60, deadline=None)
    def test_involution_involutive(self, e):
        assert ex.involution(ex.involution(e)) == e

    def test_scalar_conjugated(self):
        assert ex.involution(ex.scalar(2 + 3j)) == ex.scalar(2 - 3j)

    def test_product_reversed(self):
        e = ex.mul(ex.var(1), ex.var(2))
        assert ex.involution(e) == ex.mul(ex.var(2), ex.var(1))

    def test_numeric_adjoint(self, rng):
        # r*(X) equals r(X)* on hermitian tuples
        for _ in range(10):
            e = random_expr(rng, 3, 2)
            X = random_tuple(2, 3, 3, mode="hermitian", rng=rng)
            try:
                a = eval_expr(ex.involution(e), X)
                b = eval_expr(e, X).conj().T
            except Exception:
                continue
            assert np.max(np.abs(a - b)) <= 1e-8 * (1 + np.max(np.abs(b)))


class TestSubexpressions:
    def test_postorder_dedup(self):
        e = ex.mul(ex.var(1), ex.var(1))
        subs = ex.postorder(e)
        assert subs.count(ex.var(1)) == 1
        assert subs[-1] == e

    def test_shared_nodes_listed_once(self):
        s = ex.parse("inv(x1)", d=2)
        p = ex.mul(ex.var(2), s)
        e = ex.add(p, s)
        # left to right, children first, each node where a walk first ends it
        assert ex.postorder(e) == [ex.var(2), ex.var(1), s, p, e]
        assert ex.postorder(e, s) == ex.postorder(e)
        assert ex.postorder(s, e) == [ex.var(1), s, ex.var(2), p, e]

    def test_variables_used(self):
        e = ex.add(ex.var(3), ex.inv(ex.add(ex.var(1), ex.scalar(2))))
        assert ex.variables_used(e) == {1, 3}


class TestParsePrint:
    @pytest.mark.parametrize("text", [
        "x1",
        "x1+x2",
        "x1*x2*x3",
        "inv(1-x1)",
        "2*x1-3*x2",
        "(x1+x2)*x3",
        "x1*(x2+x3)",
        "inv(inv(x1)+x2)",
        "i*x1",
        "1.5*x2+2e-3",
    ])
    def test_round_trip(self, text):
        e = ex.parse(text, d=3)
        assert ex.parse(ex.to_str(e), d=3) == e

    @given(exprs())
    @settings(max_examples=80, deadline=None)
    def test_print_parse_fixpoint(self, e):
        assert ex.parse(ex.to_str(e), d=3) == e

    def test_adj_normalized_at_parse(self):
        e = ex.parse("adj(x1*x2)", d=2)
        assert e == ex.mul(ex.var(2), ex.var(1))

    def test_d_inferred(self):
        e = ex.parse("x5+x2")
        assert ex.variables_used(e) == {2, 5}

    @pytest.mark.parametrize("bad", ["x1 +", "inv(", "x0", "* x1", "x1)("])
    def test_parse_errors(self, bad):
        with pytest.raises(ex.ParseError):
            ex.parse(bad, d=3)

    @pytest.mark.parametrize("text", ["(" * 1200 + "x1" + ")" * 1200,
                                      "inv(" * 400 + "x1" + ")" * 400],
                             ids=["parens", "inv"])
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ex.ParseError, match="nested too deeply"):
            ex.parse(text, d=1)

    @pytest.mark.parametrize("text", ["1e999", "x1+1e999", "x1+1e999-1e999",
                                      "1e999+x1*x1", "1e308*10", "1e308*10*0+x1",
                                      "inv(1e-320)*x1", "(1e200*i)*(1e200*i)*x1"])
    def test_non_finite_constant(self, text):
        # a numeral or a folded constant that overflows
        with pytest.raises(ex.ParseError, match="constant is not finite"):
            ex.parse(text, d=1)

    def test_index_out_of_range(self):
        with pytest.raises(ex.ParseError):
            ex.parse("x4", d=3)

    def test_split_adjoint(self):
        e = ex.parse("adj(x1)", d=1, split_adjoint=True)
        assert e == ex.add(ex.var(1), ex.mul(ex.scalar(-1j), ex.var(2)))

    def test_split_adjoint_hermitian_parts(self, rng):
        # x + adj(x) evaluates hermitian for hermitian pair substitution
        e = ex.parse("x1 + adj(x1)", d=1, split_adjoint=True)
        X = random_tuple(2, 3, 3, mode="hermitian", rng=rng)
        val = eval_expr(e, X)
        assert np.max(np.abs(val - val.conj().T)) < 1e-12


class TestExprMatrix:
    def test_adjoint_transposes(self):
        m = ex.ExprMatrix(1, 2, (ex.var(1), ex.var(2)))
        ma = m.adjoint()
        assert (ma.rows, ma.cols) == (2, 1)
        assert ma.at(0, 0) == ex.var(1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ex.ExprMatrix(2, 2, (ex.var(1),))
