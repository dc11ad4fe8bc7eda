"""Command-line interface: exit codes, JSON output, determinism."""

import json
import warnings

import numpy as np
import pytest

from ncrat.cli import EXIT_NEGATIVE, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from ncrat.numkernel import MatrixTuple, matrix_to_json, random_tuple
from ncrat.pencil import HomogeneousPencil
from ncrat.sdpcore import import_sdpa


@pytest.fixture
def fixtures(tmp_path):
    paths = {}

    def dump(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)

    X = random_tuple(1, 2, 2, mode="hermitian", seed=5)
    dump("x.json", X.to_json())
    zero = MatrixTuple((np.zeros((2, 2)),), hermitian=True)
    dump("zero.json", zero.to_json())
    full = HomogeneousPencil((np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])))
    dump("full.json", full.to_json())
    notfull = HomogeneousPencil((np.array([[1.0, 0.0], [1.0, 0.0]]),
                                 np.array([[0.0, 1.0], [0.0, 1.0]])))
    dump("notfull.json", notfull.to_json())
    tall = random_tuple(2, 2, 1, mode="generic", seed=6)
    dump("tall.json", tall.to_json())
    interval = {"H": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]]}
    dump("interval.json", interval)
    dump("nonherm.json", {"H": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]]})
    # affine [[1, x1], [x2, 1]]: M0 = I, then one coefficient per variable
    affine = (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
              np.array([[0.0, 0.0], [1.0, 0.0]]))
    dump("affine.json", {"e": 2, "M": [matrix_to_json(m) for m in affine]})
    paths["dir"] = str(tmp_path)
    return paths


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_eval_ok(self, capsys, fixtures):
        code, out, _ = _run(capsys, ["eval", "x1*x1", "--at", fixtures["x.json"]])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert "value" in obj

    def test_eval_domain_error_numeric(self, capsys, fixtures):
        code, _, err = _run(capsys, ["eval", "inv(x1)", "--at", fixtures["zero.json"]])
        assert code == EXIT_NUMERIC
        assert "numeric failure" in err

    def test_parse_error_usage(self, capsys, fixtures):
        code, _, err = _run(capsys, ["eval", "x1 +", "--at", fixtures["x.json"]])
        assert code == EXIT_USAGE
        assert "expression error" in err

    def test_missing_file_usage(self, capsys, fixtures):
        code, _, _ = _run(capsys, ["eval", "x1", "--at", fixtures["dir"] + "/no.json"])
        assert code == EXIT_USAGE

    def test_certify_negative(self, capsys, fixtures):
        code, out, _ = _run(capsys, ["certify", "x1", "--seed", "0"])
        assert code == EXIT_NEGATIVE
        obj = json.loads(out)
        assert obj["certified"] is False
        assert obj["witness"] is not None

    def test_certify_nan_in_solve_not_input_error(self, capsys):
        # the SDP solve of x1^3 hits a non-finite search direction, which is
        # caught before any arithmetic on it can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = _run(capsys, ["certify", "x1*x1*x1", "--seed", "0"])
        assert code == EXIT_NEGATIVE
        obj = json.loads(out)
        assert obj["certified"] is False
        if obj["witness"] is not None:
            X = MatrixTuple.from_json(obj["witness"])
            assert np.linalg.eigvalsh(X[0] @ X[0] @ X[0])[0] < 0

    def test_nonhermitian_lmi_usage(self, capsys, fixtures):
        code, _, err = _run(capsys, ["certify", "x1", "--lmi", fixtures["nonherm.json"]])
        assert code == EXIT_USAGE
        assert "hermitian" in err

    @pytest.mark.parametrize("name, obj, argv, why", [
        # plain numbers where [re, im] pairs belong
        ("lmi.json", {"H": [[[1, 0], [0, -1]]]}, ["certify", "x1*x1", "--lmi"],
         "entry [0][0]"),
        ("coeffs.json", {"coeffs": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}, ["full"],
         "entry [0][0]"),
        ("rows.json", {"H": [5]}, ["certify", "x1*x1", "--lmi"], "not a list of rows"),
        ("pencil.json", {"coeffs": 5}, ["full"], "must be a list of matrices"),
    ])
    def test_malformed_matrices_usage(self, capsys, tmp_path, name, obj, argv, why):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        code, out, err = _run(capsys, argv + [str(p)])
        assert code == EXIT_USAGE
        assert out == ""
        assert "input error" in err and why in err

    def test_affine_pencil_to_extend_side_usage(self, capsys, fixtures):
        code, _, _ = _run(capsys, ["extend", "side", "--pencil", fixtures["affine.json"],
                                   "--x", fixtures["tall.json"]])
        assert code == EXIT_USAGE

    def test_certify_positive(self, capsys, fixtures):
        code, out, _ = _run(capsys, ["certify", "x1*x1", "--seed", "0"])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["certified"] is True
        assert obj["residual"] <= 1e-6


class TestCommands:
    def test_realize(self, capsys):
        code, out, _ = _run(capsys, ["realize", "inv(1-x1)"])
        assert code == EXIT_OK
        # 1 - x1 desugars to 1 + (-1)*x1: size 1 + (1 + 2), inverse adds one
        assert json.loads(out)["e"] == 5

    def test_full_verdicts(self, capsys, fixtures):
        code, out, _ = _run(capsys, ["full", fixtures["full.json"]])
        assert code == EXIT_OK and json.loads(out)["verdict"] == "full"
        code, out, _ = _run(capsys, ["full", fixtures["notfull.json"]])
        assert json.loads(out)["verdict"] == "not-full-probabilistic"

    def test_full_affine(self, capsys, fixtures):
        # an "M" file is tested as M0 o I + sum Mj o Xj: d = 2 witness matrices
        code, out, _ = _run(capsys, ["full", fixtures["affine.json"]])
        obj = json.loads(out)
        assert code == EXIT_OK and obj["verdict"] == "full"
        assert obj["witness"]["d"] == 2
        assert len(obj["witness"]["matrices"]) == 2

    def test_extend_side(self, capsys, fixtures):
        code, out, _ = _run(capsys, ["extend", "side",
                                     "--pencil", fixtures["full.json"],
                                     "--x", fixtures["tall.json"]])
        assert code == EXIT_OK
        assert json.loads(out)["sigma_min"] > 0

    def test_widen(self, capsys):
        code, out, _ = _run(capsys, ["widen", "inv(x1)", "--seed", "0"])
        assert code == EXIT_OK
        assert "expr" in json.loads(out)

    def test_basis(self, capsys):
        code, out, _ = _run(capsys, ["basis", "inv(1-x1)", "--level", "1"])
        assert code == EXIT_OK
        assert json.loads(out)["dim"] == 3

    def test_optimize_sup(self, capsys, fixtures):
        code, out, _ = _run(capsys, ["optimize", "x1", "--sup",
                                     "--lmi", fixtures["interval.json"]])
        assert code == EXIT_OK
        assert json.loads(out)["mu"] == pytest.approx(1.0, abs=1e-5)

    def test_optimize_lmi_in_fewer_variables(self, capsys, fixtures):
        # the interval LMI constrains x1 only; x2 is free, so inf is -1 at x2 = 0
        code, out, _ = _run(capsys, ["optimize", "x2*x2+x1", "--inf",
                                     "--lmi", fixtures["interval.json"]])
        assert code == EXIT_OK
        assert json.loads(out)["mu"] == pytest.approx(-1.0, abs=1e-6)

    def test_export_sdpa(self, capsys, fixtures):
        out_path = fixtures["dir"] + "/prob.dat-s"
        code, out, _ = _run(capsys, ["export-sdpa", "x1*x1", "--out", out_path])
        assert code == EXIT_OK
        meta = json.loads(out)
        prob = import_sdpa(out_path)
        assert prob.m == meta["m"]

    def test_expr_from_file(self, capsys, fixtures, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("x1 + x1")
        code, out, _ = _run(capsys, ["realize", "@" + str(p)])
        assert code == EXIT_OK

    def test_report_file(self, capsys, fixtures, tmp_path):
        rp = tmp_path / "report.txt"
        code, _, err = _run(capsys, ["realize", "x1", "--report", str(rp)])
        assert code == EXIT_OK
        assert err == ""
        assert "realization" in rp.read_text()

    def test_split_adjoint_auto(self, capsys):
        code, out, _ = _run(capsys, ["realize", "x1 + adj(x1)"])
        assert code == EXIT_OK
        # split doubles the variable count
        assert len(json.loads(out)["M"]) == 3


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["certify", "x1*x1", "--seed", "7"],
        ["widen", "inv(x1)", "--seed", "7"],
        ["basis", "inv(1-x1)", "--seed", "7"],
        ["optimize", "x1*x1", "--inf", "--seed", "7"],
    ])
    def test_byte_identical(self, capsys, argv):
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        assert out1 == out2
