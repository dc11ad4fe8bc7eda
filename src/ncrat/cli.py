"""Command-line interface.

Machine output is JSON on stdout (keys sorted, so identical command plus seed
gives byte-identical output); human-readable reports go to stderr or a
--report file.  Exit codes: 0 success/certified, 1 not-certified or violation
found, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import expr as ex
from .expr import ParseError
from .numkernel import (
    RANK_TOL,
    MatrixTuple,
    NotPositiveDefiniteError,
    SingularMatrixError,
    matrix_from_json,
    matrix_to_json,
    norm_max,
    random_tuple,
)
from .realization import DomainError, build_realization, eval_expr
from .pencil import HomogeneousPencil, is_full
from .extension import (
    BoundExhaustedError,
    HypothesisError,
    extend_hermitian,
    extend_nonhermitian,
    extend_side,
    extend_square,
)
from .domainrep import NotInvertibleError, widen_hdom
from .gnsbasis import SamplingError, SingularGramError, build_R, build_basis
from .psatz import build_sdp, certify_qm, find_violation, optimize_eig
from .sdpcore import export_sdpa

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_NUMERIC_ERRORS = (
    DomainError,
    SamplingError,
    SingularGramError,
    SingularMatrixError,
    NotPositiveDefiniteError,
    BoundExhaustedError,
    HypothesisError,
    NotInvertibleError,
    np.linalg.LinAlgError,
)


def _env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def _env_float(name: str, default: float) -> float:
    return float(os.environ.get(name, default))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


class _Reporter:
    def __init__(self, path: str | None):
        self.fh = open(path, "w") if path else sys.stderr
        self.owns = path is not None

    def __call__(self, msg: str) -> None:
        self.fh.write(msg + "\n")

    def close(self) -> None:
        if self.owns:
            self.fh.close()


def _load_text(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:]) as fh:
            return fh.read()
    return arg


def _load_expr(arg: str, d: int | None, split: str):
    text = _load_text(arg)
    if split == "auto":
        do_split = "adj(" in text.replace(" ", "")
    else:
        do_split = split == "yes"
    return ex.parse(text, d=d, split_adjoint=do_split)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_tuple(path: str) -> MatrixTuple:
    return MatrixTuple.from_json(_load_json(path))


def _load_pencil(path: str, *keys: str) -> tuple[HomogeneousPencil, dict]:
    """The pencil stored under the first of `keys` present in the file, and
    the whole JSON object.  "coeffs" holds a homogeneous pencil, "M" an affine
    one (constant first) and "H" the hermitian H1..Hd of a monic LMI, which
    is returned as the pencil (I, H1..Hd)."""
    obj = _load_json(path)
    key = next((k for k in keys if k in obj), None)
    if key is None:
        raise ValueError(f"{path}: expected a pencil under "
                         + " or ".join(repr(k) for k in keys))
    if not isinstance(obj[key], list):
        raise ValueError(f"{path}: {key!r} must be a list of matrices")
    mats = [matrix_from_json(c) for c in obj[key]]
    if key == "H":
        for H in mats:
            if norm_max(H - H.conj().T) > 1e-12 * max(1.0, norm_max(H)):
                raise ValueError("pencil coefficients must be hermitian")
        mats.insert(0, np.eye(len(mats[0]) if mats else 1))
    return HomogeneousPencil(tuple(mats)), obj


def _add_common(sp, level_default: int | None = None):
    sp.add_argument("--seed", type=int, default=_env_int("NCRAT_SEED", 0),
                    help="RNG seed (default 0, env NCRAT_SEED)")
    sp.add_argument("--tol", type=float, default=_env_float("NCRAT_TOL", RANK_TOL),
                    help="rank/singularity tolerance (default 1e-9, env NCRAT_TOL)")
    if level_default is not None:
        sp.add_argument("--level", type=int,
                        default=_env_int("NCRAT_LEVEL", level_default),
                        help="hierarchy level (env NCRAT_LEVEL)")
    sp.add_argument("--d", type=int, default=None,
                    help="number of variables (default: inferred)")
    sp.add_argument("--report", default=None,
                    help="write the human-readable report to this file")
    sp.add_argument("--split-adjoint", choices=["auto", "yes", "no"],
                    default="auto",
                    help="map x_j to a_j + i*b_j over hermitian pairs when the "
                         "expression uses adj() on variables")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncrat",
        description="Noncommutative rational functions: realizations, pencil "
                    "extensions, domain widening, and positivity certificates.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="evaluate an expression at a matrix tuple")
    p.add_argument("expr")
    p.add_argument("--at", required=True, metavar="TUPLE.json")
    _add_common(p)

    p = sub.add_parser("realize", help="build a linear representation")
    p.add_argument("expr")
    _add_common(p)

    p = sub.add_parser("full", help="probabilistic pencil fullness test")
    p.add_argument("pencil", metavar="PENCIL.json")
    p.add_argument("--trials", type=int, default=20)
    _add_common(p)

    p = sub.add_parser("extend", help="pencil/domain extension theorems")
    esub = p.add_subparsers(dest="kind", required=True)

    q = esub.add_parser("side", help="one-sided completion to invertibility")
    q.add_argument("--pencil", required=True)
    q.add_argument("--x", required=True, metavar="X.json")
    q.add_argument("--trials", type=int, default=16)
    _add_common(q)

    q = esub.add_parser("square", help="two-sided completion to invertibility")
    q.add_argument("--pencil", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--yp", required=True)
    q.add_argument("--ypp", required=True)
    q.add_argument("--mode", choices=["sampling", "blocks"], default="sampling")
    q.add_argument("--trials", type=int, default=16)
    _add_common(q)

    q = esub.add_parser("hermitian", help="hermitian domain extension")
    q.add_argument("expr")
    q.add_argument("--x", required=True)
    q.add_argument("--y", default=None)
    q.add_argument("--trials", type=int, default=16)
    _add_common(q)

    q = esub.add_parser("nonhermitian", help="rectangular domain completion")
    q.add_argument("expr")
    q.add_argument("--x", required=True)
    q.add_argument("--trials", type=int, default=16)
    _add_common(q)

    p = sub.add_parser("widen", help="largest-hermitian-domain representative")
    p.add_argument("expr")
    p.add_argument("--pencil", default=None,
                   help="realization JSON (u, M, v) overriding the built one")
    _add_common(p)

    p = sub.add_parser("basis", help="independent basis of the product space")
    p.add_argument("expr")
    _add_common(p, level_default=1)

    p = sub.add_parser("certify", help="quadratic-module membership certificate")
    p.add_argument("expr")
    p.add_argument("--lmi", default=None, metavar="L.json")
    _add_common(p, level_default=1)

    p = sub.add_parser("optimize", help="eigenvalue bound on a spectrahedron")
    p.add_argument("expr")
    p.add_argument("--lmi", default=None, metavar="L.json")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--sup", action="store_true")
    g.add_argument("--inf", action="store_true")
    _add_common(p, level_default=1)

    p = sub.add_parser("export-sdpa", help="write the membership SDP as .dat-s")
    p.add_argument("expr")
    p.add_argument("--lmi", default=None, metavar="L.json")
    p.add_argument("--direction", choices=["feas", "sup", "inf"], default="feas")
    p.add_argument("--out", required=True)
    _add_common(p, level_default=1)

    return ap


def _cmd_eval(args, report) -> int:
    X = _load_tuple(args.at)
    r = _load_expr(args.expr, args.d or X.d, args.split_adjoint)
    val = eval_expr(r, X, tol=args.tol)
    _emit({"value": matrix_to_json(val)})
    report(f"evaluated at a {X.rows}x{X.cols} tuple (d={X.d})")
    return EXIT_OK


def _cmd_realize(args, report) -> int:
    r = _load_expr(args.expr, args.d, args.split_adjoint)
    rep = build_realization(r, args.d)
    _emit(rep.to_json())
    report(f"realization size {rep.size} for tau {ex.tau(r)} expression")
    return EXIT_OK


def _cmd_full(args, report) -> int:
    pencil, obj = _load_pencil(args.pencil, "M", "coeffs")
    rep = is_full(pencil, trials=args.trials, seed=args.seed, tol=args.tol,
                  affine="M" in obj)
    _emit(rep.to_json())
    report(f"verdict: {rep.verdict} (probed size {rep.size_probed}, "
           f"{rep.trials_used} trials)")
    return EXIT_OK


def _cmd_extend(args, report) -> int:
    if args.kind == "side":
        L, _ = _load_pencil(args.pencil, "coeffs")
        X = _load_tuple(args.x)
        out = extend_side(L, X, seed=args.seed, trials=args.trials, tol=args.tol)
        _emit(out.to_json())
        report(f"side extension n={out.n}, sigma_min={out.sigma_min:.3e}")
    elif args.kind == "square":
        L, _ = _load_pencil(args.pencil, "coeffs")
        Y, Yp, Ypp = _load_tuple(args.y), _load_tuple(args.yp), _load_tuple(args.ypp)
        out = extend_square(L, Y, Yp, Ypp, mode=args.mode, seed=args.seed,
                            trials=args.trials, tol=args.tol)
        _emit(out.to_json())
        report(f"square extension ({args.mode}) n={out.n}, "
               f"sigma_min={out.sigma_min:.3e}, bound {out.bound_used}")
    elif args.kind == "hermitian":
        r = _load_expr(args.expr, args.d, args.split_adjoint)
        X = _load_tuple(args.x)
        Y = _load_tuple(args.y) if args.y else None
        out = extend_hermitian(r, X, Y, seed=args.seed, trials=args.trials,
                               tol=args.tol, d=args.d)
        _emit(out.to_json())
        report(f"hermitian extension to size {out.Xtilde.rows}, "
               f"sigma_min={out.sigma_min:.3e}")
    else:
        r = _load_expr(args.expr, args.d, args.split_adjoint)
        X = _load_tuple(args.x)
        out = extend_nonhermitian(r, X, seed=args.seed, trials=args.trials,
                                  tol=args.tol, d=args.d)
        _emit(out.to_json())
        report(f"nonhermitian completion to size {out.rows}")
    return EXIT_OK


def _cmd_widen(args, report) -> int:
    r = _load_expr(args.expr, args.d, args.split_adjoint)
    override = None
    if args.pencil:
        M, obj = _load_pencil(args.pencil, "M")
        u = [complex(re, im) for re, im in obj["u"]]
        v = [complex(re, im) for re, im in obj["v"]]
        override = (u, M.coeffs, v)
    w = widen_hdom(r, pencil_override=override, d=args.d, seed=args.seed)
    d = args.d or max(ex.variables_used(r), default=1)
    rng = np.random.default_rng(args.seed)
    witnesses = []
    for t in range(120):
        if len(witnesses) >= 3:
            break
        n = 1 + t % 3
        X = random_tuple(d, n, n, mode="hermitian", rng=rng)
        # a generic tuple is never outside the original domain; make one
        # variable singular to probe the gained region
        j = t % d
        wv, V = np.linalg.eigh(X[j])
        wv[0] = 0.0
        mats = list(X.matrices)
        mats[j] = V @ np.diag(wv) @ V.conj().T
        X = MatrixTuple(tuple(mats), hermitian=True)
        try:
            eval_expr(r, X, tol=args.tol)
            continue
        except DomainError:
            pass
        try:
            eval_expr(w, X, tol=args.tol)
        except DomainError:
            continue
        witnesses.append(X.to_json())
    _emit({"expr": ex.to_str(w), "witnesses": witnesses})
    report(f"widened representative with tau {ex.tau(w)}; "
           f"{len(witnesses)} domain-gain witnesses found")
    return EXIT_OK


def _cmd_basis(args, report) -> int:
    r = _load_expr(args.expr, args.d, args.split_adjoint)
    R = build_R(r)
    basis = build_basis(R, args.level, seed=args.seed, tol=args.tol, d=args.d)
    _emit(basis.to_json())
    report(f"dim V_{args.level} = {basis.dim} over |R| = {len(R)}")
    return EXIT_OK


def _cmd_certify(args, report) -> int:
    r = _load_expr(args.expr, args.d, args.split_adjoint)
    L = _load_pencil(args.lmi, "H")[0] if args.lmi else None
    cert = certify_qm(r, L, level=args.level, seed=args.seed, d=args.d)
    if cert is None:
        witness = find_violation(r, L, seed=args.seed, d=args.d)
        _emit({
            "certified": False,
            "level": args.level,
            "witness": witness.to_json() if witness is not None else None,
        })
        report(f"not certified at level {args.level}"
               + ("; violation witness found" if witness is not None
                  else "; no violation found (inconclusive)"))
        return EXIT_NEGATIVE
    out = cert.to_json()
    out["certified"] = True
    _emit(out)
    report(f"certified at level {args.level}: {len(cert.squares)} squares, "
           f"{len(cert.vectors)} localized vectors, "
           f"residual {cert.residual:.3e}")
    return EXIT_OK


def _cmd_optimize(args, report) -> int:
    r = _load_expr(args.expr, args.d, args.split_adjoint)
    L = _load_pencil(args.lmi, "H")[0] if args.lmi else None
    direction = "sup" if args.sup else "inf"
    res = optimize_eig(r, L, direction, level=args.level, seed=args.seed,
                       d=args.d)
    _emit(res.to_json())
    if res.status == "optimal":
        report(f"mu = {res.mu:.6f} ({direction}, level {args.level}, "
               f"gap {res.gap:.2e})")
        return EXIT_OK
    report(f"optimization failed: {res.status}")
    return EXIT_NUMERIC


def _cmd_export_sdpa(args, report) -> int:
    r = _load_expr(args.expr, args.d, args.split_adjoint)
    L = _load_pencil(args.lmi, "H")[0] if args.lmi else None
    direction = None if args.direction == "feas" else args.direction
    prob = build_sdp(r, L, level=args.level, direction=direction,
                     seed=args.seed, d=args.d)
    export_sdpa(prob, args.out)
    _emit({
        "path": args.out,
        "m": prob.m,
        "block_dims": list(prob.block_dims),
        "nfree": prob.nfree,
    })
    report(f"wrote {args.out}: {prob.m} constraints, blocks {list(prob.block_dims)}")
    return EXIT_OK


_DISPATCH = {
    "eval": _cmd_eval,
    "realize": _cmd_realize,
    "full": _cmd_full,
    "extend": _cmd_extend,
    "widen": _cmd_widen,
    "basis": _cmd_basis,
    "certify": _cmd_certify,
    "optimize": _cmd_optimize,
    "export-sdpa": _cmd_export_sdpa,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    report = _Reporter(args.report)
    try:
        return _DISPATCH[args.cmd](args, report)
    except ParseError as err:
        report(f"expression error: {err}")
        return EXIT_USAGE
    except _NUMERIC_ERRORS as err:
        report(f"numeric failure: {err}")
        return EXIT_NUMERIC
    except (OSError, json.JSONDecodeError, ValueError) as err:
        report(f"input error: {err}")
        return EXIT_USAGE
    except RuntimeError as err:
        report(f"failure: {err}")
        return EXIT_NUMERIC
    finally:
        report.close()


if __name__ == "__main__":
    sys.exit(main())
