"""Dense linear algebra helpers and matrix tuples."""

import ast
from pathlib import Path

import numpy as np
import pytest

import ncrat
from ncrat.numkernel import (
    MatrixTuple,
    NotPositiveDefiniteError,
    SingularMatrixError,
    cholesky,
    full_rank,
    herm_deviation,
    hermitian_eig,
    is_hermitian,
    kron,
    lu_solve,
    matrix_from_json,
    matrix_to_json,
    random_tuple,
    sigma_extremes,
)


class TestLuSolve:
    def test_matches_numpy(self, rng):
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        B = rng.standard_normal((6, 3))
        X = lu_solve(A, B)
        assert np.allclose(A @ X, B, atol=1e-10)

    def test_singular_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            lu_solve(A, np.eye(2))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            lu_solve(np.ones((2, 3)), np.eye(2))


class TestRank:
    def test_exact_rank(self, rng):
        U = rng.standard_normal((5, 2))
        V = rng.standard_normal((2, 5))
        ok, smin = full_rank(U @ V)
        assert not ok and smin < 1e-12
        # tall U has full column rank and wide V full row rank
        assert full_rank(U)[0] and full_rank(V)[0]

    def test_zero_matrix(self):
        assert full_rank(np.zeros((3, 3))) == (False, 0.0)

    def test_empty_matrix(self):
        assert full_rank(np.zeros((3, 0))) == (True, 0.0)

    def test_relative_threshold(self):
        # scale-free: sigma_min / sigma_max = 1e-6 passes at 1e-9, not at 1e-5
        A = 1e-20 * np.diag([1.0, 1e-6])
        assert full_rank(A)[0]
        assert not full_rank(A, 1e-5)[0]

    def test_sigma_extremes(self):
        smin, smax = sigma_extremes(np.diag([3.0, 1.0]))
        assert smin == pytest.approx(1.0)
        assert smax == pytest.approx(3.0)


class TestIsHermitian:
    def test_relative_to_max_entry(self):
        A = np.array([[1e6, 1.0], [1.0 + 1e-7, 0.0]])
        assert is_hermitian(A)  # deviation about 1e-7, bound 1e-12 * 1e6
        A[0, 0] = 1e-3
        assert not is_hermitian(A)  # the bound is floored at 1e-12 * 1

    def test_bound_is_inclusive(self):
        A = np.array([[2.0, 1.0], [0.0, 0.0]])  # deviation 1, max entry 2
        assert is_hermitian(A, 0.5)
        assert not is_hermitian(A, 0.49)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN deviation never exceeds the bound; finiteness is tested first
        assert not is_hermitian(np.array([[1.0, bad], [0.0, 1.0]]))
        assert not is_hermitian(np.array([[bad, 0.0], [0.0, 1.0]]))
        assert not is_hermitian(np.array([[1.0, bad], [bad, 1.0]]))


class TestKron:
    def test_mixed_product(self, rng):
        A, B = rng.standard_normal((2, 3)), rng.standard_normal((3, 2))
        C, D = rng.standard_normal((3, 2)), rng.standard_normal((2, 3))
        lhs = kron(A, C) @ kron(B, D)
        rhs = kron(A @ B, C @ D)
        assert np.allclose(lhs, rhs)


class TestCholesky:
    def test_factor(self, rng):
        G = rng.standard_normal((4, 4))
        A = G @ G.T + np.eye(4)
        L = cholesky(A)
        assert np.allclose(L @ L.conj().T, A)

    def test_failure_reports_min_eig(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            cholesky(np.diag([1.0, -2.0]))
        assert info.value.min_eig == pytest.approx(-2.0)


class TestHermitianEig:
    def test_ascending_and_unitary(self, rng):
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A = (G + G.conj().T) / 2
        w, V = hermitian_eig(A)
        assert np.all(np.diff(w) >= 0)
        assert np.allclose(V @ np.diag(w) @ V.conj().T, A)


class TestMatrixTuple:
    def test_json_round_trip_exact(self, rng):
        X = random_tuple(3, 2, 4, mode="generic", rng=rng)
        Y = MatrixTuple.from_json(X.to_json())
        for a, b in zip(X, Y):
            assert np.array_equal(a, b)

    def test_hermitian_flag_validated(self):
        with pytest.raises(ValueError):
            MatrixTuple((np.array([[0.0, 1.0], [0.0, 0.0]]),), hermitian=True)
        with pytest.raises(ValueError):
            MatrixTuple((np.ones((2, 3)),), hermitian=True)

    def test_hermitian_flag_is_relative_and_finite(self):
        # the flag is checked by is_hermitian: relative to the largest entry,
        # and a NaN or inf entry fails
        A = np.array([[1e6, 1e6], [1e6 * (1 + 3e-13), 0.0]])
        assert is_hermitian(A)
        assert MatrixTuple((A,), hermitian=True).hermitian
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                MatrixTuple((np.array([[1.0, bad], [0.0, 1.0]]),), hermitian=True)

    def test_shape_consistency(self):
        with pytest.raises(ValueError):
            MatrixTuple((np.eye(2), np.eye(3)))

    def test_adjoint(self, rng):
        X = random_tuple(2, 3, 2, mode="generic", rng=rng)
        Xa = X.adjoint()
        assert Xa.rows == 2 and Xa.cols == 3
        assert np.allclose(Xa[0], X[0].conj().T)

    def test_matrix_json_complex(self):
        m = np.array([[1 + 2j, 0], [0, -1j]])
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


class TestRandomTuple:
    def test_deterministic(self):
        X = random_tuple(2, 3, 3, mode="hermitian", seed=7)
        Y = random_tuple(2, 3, 3, mode="hermitian", seed=7)
        for a, b in zip(X, Y):
            assert np.array_equal(a, b)

    def test_hermitian_mode(self):
        X = random_tuple(3, 4, 4, mode="hermitian", seed=1)
        assert X.hermitian
        for m in X:
            assert herm_deviation(m) < 1e-14

    def test_real_symmetric_mode(self):
        X = random_tuple(2, 3, 3, mode="real-symmetric", seed=2)
        assert X.real_symmetric
        for m in X:
            assert np.max(np.abs(m.imag)) == 0

    def test_rectangular_hermitian_rejected(self):
        with pytest.raises(ValueError):
            random_tuple(1, 2, 3, mode="hermitian", seed=0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            random_tuple(1, 2, 2, mode="bogus", seed=0)


def test_one_rank_test():
    """Every rank, fullness, invertibility and domain decision in the package
    goes through `full_rank`: no module but numkernel takes an SVD or calls
    `sigma_extremes` itself, so one rule and one tolerance decide them all.

    The sweep's Gram-Schmidt cut (gnsbasis) and the pivoted-QR cut in
    `psatz._prune_rows` pick rows to keep rather than answer yes or no, and
    stay outside this rule.
    """
    src = Path(ncrat.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "numkernel.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in ("svd", "matrix_rank", "sigma_extremes"):
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []
