"""Homogeneous pencils: rectangular evaluation, fullness, rank conditions."""

import json

import numpy as np
import pytest

from ncrat.cli import _load_pencil
from ncrat.numkernel import MatrixTuple, random_tuple
from ncrat.pencil import HomogeneousPencil, is_full, rank_conditions, rect_eval


def _pencil(*mats):
    return HomogeneousPencil(tuple(np.array(m, dtype=float) for m in mats))


# [[x1, x2], [x1, x2]]: rows repeat, never invertible
NOT_FULL = _pencil([[1, 0], [1, 0]], [[0, 1], [0, 1]])
# [[x1, x2], [x3, x4]]: invertible at generic scalars
FULL4 = _pencil([[1, 0], [0, 0]], [[0, 1], [0, 0]],
                [[0, 0], [1, 0]], [[0, 0], [0, 1]])


class TestRectEval:
    def test_shape(self, rng):
        X = random_tuple(4, 3, 2, mode="generic", rng=rng)
        out = rect_eval(FULL4, X)
        assert out.shape == (6, 4)

    def test_values(self):
        X = MatrixTuple(tuple(np.array([[float(v)]]) for v in (1, 2, 3, 4)))
        out = rect_eval(FULL4, X)
        assert np.allclose(out, [[1, 2], [3, 4]])

    def test_nvars_mismatch(self, rng):
        with pytest.raises(ValueError):
            rect_eval(FULL4, random_tuple(2, 2, 2, mode="generic", rng=rng))


class TestFullness:
    def test_not_full(self):
        rep = is_full(NOT_FULL, seed=0)
        assert rep.verdict == "not-full-probabilistic"
        assert rep.witness is None

    def test_full_with_witness(self):
        rep = is_full(FULL4, seed=0)
        assert rep.verdict == "full"
        assert rep.size_probed == 1
        assert rep.witness is not None and rep.witness_sigma_min > 0

    def test_degenerate(self):
        rep = is_full(_pencil([[0, 0], [0, 0]]), seed=0)
        assert rep.verdict == "degenerate"

    def test_verdict_stable_across_seeds(self):
        for seed in range(10):
            assert is_full(NOT_FULL, seed=seed).verdict == "not-full-probabilistic"
            assert is_full(FULL4, seed=seed).verdict == "full"

    def test_json(self):
        obj = is_full(FULL4, seed=3).to_json()
        assert obj["verdict"] == "full"
        assert obj["witness"]["rows"] == 1


class TestRankConditions:
    def test_generic_instance_passes(self, rng):
        # identity coefficient makes generic stacked evaluations full rank
        L = _pencil([[1, 0], [0, 1]], [[0, 1], [1, 0]])
        ell, m = 2, 1
        Y = random_tuple(2, ell, ell, mode="hermitian", rng=rng)
        Yp = random_tuple(2, m, ell, mode="generic", rng=rng)
        Ypp = random_tuple(2, ell, m, mode="generic", rng=rng)
        col_ok, row_ok, (scol, srow) = rank_conditions(L, Y, Yp, Ypp)
        assert col_ok and row_ok
        assert scol > 0 and srow > 0

    def test_zero_instance_fails(self):
        L = _pencil([[1.0]])
        Z = MatrixTuple((np.zeros((1, 1)),))
        col_ok, row_ok, _ = rank_conditions(L, Z, Z, Z)
        assert not col_ok and not row_ok

    def test_transpose(self):
        t = FULL4.transpose()
        assert np.array_equal(t.coeffs[1], FULL4.coeffs[1].T)

    def test_json_round_trip(self, tmp_path):
        # the "coeffs" format reads back through the CLI's one pencil reader
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(FULL4.to_json()))
        q, _ = _load_pencil(str(path), "coeffs")
        for a, b in zip(q.coeffs, FULL4.coeffs):
            assert np.array_equal(a, b)
