"""Command-line interface: exit codes, JSON output, determinism."""

import json
import warnings

import numpy as np
import pytest

from ncrat import cli, domainrep, psatz
from ncrat.cli import EXIT_NEGATIVE, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from ncrat.numkernel import MatrixTuple, full_rank, matrix_to_json, random_tuple
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


NAN = float("nan")
# a pencil file for inv(x1): u* inv([[1, 0], [0, x1]]) v with u = v = e2
MINIMAL_INV = {"e": 2, "u": [[0.0, 0.0], [1.0, 0.0]], "v": [[0.0, 0.0], [1.0, 0.0]],
               "M": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                     [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]}


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

    def test_empty_sampling_domain_numeric(self, capsys):
        code, out, err = _run(capsys, ["basis", "inv(x1-x1)"])
        assert (code, out) == (EXIT_NUMERIC, "")
        assert "blocking subexpression: inv(x1-x1)" in err

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
        # u of plain numbers, and non-finite entries in an "M" or "H" file
        ("uv.json", dict(MINIMAL_INV, u=[1.0, 0.0]), ["widen", "inv(x1)", "--pencil"],
         "u entry [0]"),
        ("short-v.json", dict(MINIMAL_INV, v=[[1.0, 0.0]]), ["widen", "inv(x1)", "--pencil"],
         "one entry per pencil row"),
        ("nan-m.json", dict(MINIMAL_INV, M=[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                                            [[[0, 0], [0, 0]], [[0, 0], [NAN, 0]]]]),
         ["widen", "inv(x1)", "--pencil"], "M[1] entry [1][1]"),
        ("nan-lmi.json", {"H": [[[[1, 0], [0, 0]], [[0, 0], [NAN, 0]]]]},
         ["certify", "x1*x1", "--lmi"], "H[0] entry [1][1]"),
        ("inf-lmi.json", {"H": [[[[float("inf"), 0]]]]}, ["optimize", "x1", "--sup", "--lmi"],
         "H[0] entry [0][0]"),
    ])
    def test_malformed_matrices_usage(self, capsys, tmp_path, name, obj, argv, why):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        code, out, err = _run(capsys, argv + [str(p)])
        assert code == EXIT_USAGE
        assert out == ""
        assert "input error" in err and why in err

    def test_widen_with_pencil_file(self, capsys, tmp_path):
        p = tmp_path / "minimal.json"
        p.write_text(json.dumps(MINIMAL_INV))
        code, out, _ = _run(capsys, ["widen", "inv(x1)", "--pencil", str(p)])
        assert code == EXIT_OK and "inv(" in json.loads(out)["expr"]

    def test_deep_expression_eval(self, capsys, tmp_path):
        # a 1200-term sum is 1200 nodes deep
        p = tmp_path / "sum.txt"
        p.write_text("+".join(["x1"] * 1200))
        pt = tmp_path / "pt.json"
        pt.write_text(json.dumps(MatrixTuple((np.array([[0.5]]),), hermitian=True).to_json()))
        code, out, _ = _run(capsys, ["eval", f"@{p}", "--at", str(pt)])
        assert code == EXIT_OK
        assert json.loads(out)["value"] == [[[600.0, 0.0]]]

    def test_deep_nesting_usage(self, capsys, tmp_path):
        p = tmp_path / "nested.txt"
        p.write_text("inv(" * 400 + "x1" + ")" * 400)
        code, out, err = _run(capsys, ["realize", f"@{p}"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "expression error: expression nested too deeply" in err

    @pytest.mark.parametrize("cmd", ["realize", "widen"])
    def test_non_finite_constant_usage(self, capsys, cmd):
        code, out, err = _run(capsys, [cmd, "x1+1e999"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "expression error: constant is not finite" in err

    @pytest.mark.parametrize("argv", [["certify"], ["optimize", "--inf"]])
    def test_tol_reaches_psatz(self, capsys, argv):
        # with no rank tolerance, dependent words of x1*x1 enter the basis,
        # as they do for `basis x1*x1 --level 2 --tol 0`
        code, out, err = _run(capsys, argv[:1] + ["x1*x1"] + argv[1:]
                              + ["--level", "2", "--tol", "0"])
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "singular Gram matrix of the 6-element basis" in err

    def test_tol_reaches_widen_probe(self, capsys, monkeypatch):
        # the invertibility probe of the widened pencil cuts at --tol
        tols = []
        monkeypatch.setattr(domainrep, "full_rank",
                            lambda A, tol: tols.append(tol) or full_rank(A, tol))
        code, _, _ = _run(capsys, ["widen", "inv(x1)", "--tol", "1e-6"])
        assert code == EXIT_OK
        assert tols and set(tols) == {1e-6}

    def test_tol_reaches_find_violation(self, capsys, monkeypatch):
        # the witness search decides the domain of r at --tol, as certify does
        tols, entered = [], []
        evaluate, search = psatz.eval_expr, cli.find_violation
        monkeypatch.setattr(psatz, "eval_expr", lambda r, X, tol=psatz.RANK_TOL:
                            tols.append(tol) or evaluate(r, X, tol))
        monkeypatch.setattr(cli, "find_violation", lambda *args, **kwargs:
                            entered.append(len(tols)) or search(*args, **kwargs))
        code, out, _ = _run(capsys, ["certify", "x1", "--seed", "0", "--tol", "1e-6"])
        assert code == EXIT_NEGATIVE and json.loads(out)["witness"] is not None
        assert entered and len(tols) > entered[0]
        assert set(tols) == {1e-6}

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
