"""Every option a subcommand declares is read, by main or by the
subcommand's handler, and the parser is built once, at import."""

import argparse
import json

import numpy as np
import pytest

from ncrat import cli
from ncrat.numkernel import RANK_TOL, matrix_to_json, random_tuple
from ncrat.pencil import HomogeneousPencil


class _Recording(argparse.Namespace):
    """A namespace that records, once armed, the attributes read from it."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("_reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


@pytest.fixture
def files(tmp_path):
    def dump(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    full = HomogeneousPencil((np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])))
    return {
        "x": dump("x.json", random_tuple(1, 2, 2, mode="hermitian", seed=5).to_json()),
        "pencil": dump("pencil.json", full.to_json()),
        "tall": dump("tall.json", random_tuple(2, 2, 1, seed=6).to_json()),
        "sq": dump("sq.json", random_tuple(2, 1, 1, seed=7).to_json()),
        "y1": dump("y1.json", random_tuple(2, 1, 1, seed=8).to_json()),
        "h": dump("h.json", random_tuple(2, 1, 1, mode="hermitian", seed=9).to_json()),
        "lmi": dump("lmi.json", {"H": [matrix_to_json(np.diag([1.0, -1.0]))]}),
        "out": str(tmp_path / "p.dat-s"),
    }


def _commands(f):
    return [
        ["eval", "x1*x1", "--at", f["x"]],
        ["realize", "inv(1-x1)"],
        ["full", f["pencil"]],
        ["extend", "side", "--pencil", f["pencil"], "--x", f["tall"]],
        ["extend", "square", "--pencil", f["pencil"], "--y", f["sq"],
         "--yp", f["y1"], "--ypp", f["y1"]],
        ["extend", "hermitian", "inv(2-x1)", "--x", f["h"]],
        ["extend", "nonhermitian", "inv(2-x1)", "--x", f["h"]],
        ["widen", "inv(x1)"],
        ["basis", "inv(1-x1)"],
        ["certify", "x1*x1"],
        ["optimize", "x1", "--sup", "--lmi", f["lmi"]],
        ["export-sdpa", "x1*x1", "--out", f["out"]],
    ]


def _declared(argv) -> set[str]:
    """The destinations of every action on argv's path through the parser."""
    parser, out, words = cli._build_parser(), set(), list(argv)
    while parser is not None:
        sub = None
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                sub = action.choices[words.pop(0)]
            if action.dest != "help":
                out.add(action.dest)
        parser = sub
    return out


def test_every_declared_option_is_read(files, capsys, monkeypatch):
    parse_args = argparse.ArgumentParser.parse_args
    reads: set[str] = set()

    def recording_parse(self, args=None, namespace=None):
        ns = parse_args(self, args, _Recording())
        ns.__dict__["_reads"] = reads
        return ns

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording_parse)
    unread = {}
    for argv in _commands(files):
        reads.clear()
        code = cli.main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_NEGATIVE), (argv, capsys.readouterr().err)
        missing = _declared(argv) - reads
        if missing:
            unread[" ".join(argv[:2] if argv[0] == "extend" else argv[:1])] = sorted(missing)
    capsys.readouterr()
    assert unread == {}


@pytest.mark.parametrize("argv", [
    ["eval", "x1", "--at", "x.json", "--seed", "1"],
    ["realize", "x1", "--seed", "1"],
    ["realize", "x1", "--tol", "1e-6"],
    ["full", "p.json", "--d", "2"],
    ["full", "p.json", "--split-adjoint", "yes"],
    ["extend", "side", "--pencil", "p.json", "--x", "x.json", "--d", "2"],
    ["extend", "side", "--pencil", "p.json", "--x", "x.json", "--split-adjoint", "no"],
    ["extend", "square", "--pencil", "p.json", "--y", "y.json", "--yp", "y.json",
     "--ypp", "y.json", "--d", "2"],
    ["extend", "square", "--pencil", "p.json", "--y", "y.json", "--yp", "y.json",
     "--ypp", "y.json", "--split-adjoint", "no"],
])
def test_unread_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


def test_environment_is_not_read(monkeypatch):
    for name in ("NCRAT_SEED", "NCRAT_LEVEL", "NCRAT_TOL"):
        monkeypatch.setenv(name, "7")
    args = cli._build_parser().parse_args(["basis", "x1"])
    assert (args.seed, args.level, args.tol) == (0, 1, RANK_TOL)


def test_main_builds_no_parser(capsys, monkeypatch):
    calls = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: calls.append(1) or build())
    for _ in range(2):
        assert cli.main(["realize", "x1"]) == cli.EXIT_OK
    capsys.readouterr()
    assert calls == []
