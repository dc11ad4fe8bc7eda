"""End-to-end acceptance checks, one per criterion, each reporting a single
pass/fail line on stdout."""

import json

import numpy as np
import pytest

from ncrat import expr as ex
from ncrat.cli import main as cli_main
from ncrat.extension import extend_hermitian, extend_square, HypothesisError
from ncrat.domainrep import widen_hdom
from ncrat.gnsbasis import build_R, build_basis
from ncrat.numkernel import (
    MatrixTuple,
    herm_deviation,
    matrix_to_json,
    random_tuple,
    sigma_extremes,
)
from ncrat.pencil import HomogeneousPencil, is_full, rank_conditions, rect_eval
from ncrat.psatz import (
    certify_qm,
    check_identity,
    optimize_eig,
)
from ncrat.realization import (
    DomainError,
    build_realization,
    eval_expr,
    in_domain,
    realization_eval,
)
from ncrat.sdpcore import SDPConstraint, SDPProblem, realify, solve

from conftest import in_domain_tuple, random_expr

# the monic pencil (I, H1) of 1 + diag(1, -1) x1: eigenvalues of x1 in [-1, 1]
INTERVAL = HomogeneousPencil((np.eye(2), np.array([[1.0, 0.0], [0.0, -1.0]])))


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_realization_soundness():
    rng = np.random.default_rng(11)
    checked = 0
    worst = 0.0
    for _ in range(200):
        depth = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        r = random_expr(rng, depth, d)
        rep = build_realization(r, d)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            X = in_domain_tuple(r, d, rng, n, budget=20)
            if X is None:
                continue
            want = eval_expr(r, X)
            try:
                got = realization_eval(rep, X)
            except DomainError:
                continue
            rel = np.max(np.abs(got - want)) / (1 + np.max(np.abs(want)))
            worst = max(worst, rel)
            checked += 1
    ok = worst <= 1e-8 and checked >= 500
    _report(1, ok, f"{checked} evaluations, worst relative error {worst:.2e}")


def test_criterion_2_sum_of_squares_identity():
    d = 4
    lhs = ex.parse(
        "x3*x3 + x4*x4 - (x3*x1 + x4*x2)*inv(x1*x1 + x2*x2)*(x1*x3 + x2*x4)",
        d=d)
    r1 = ex.parse("(x4 - x3*inv(x1)*x2)*x2*inv(x1*x1 + x2*x2)*x1", d=d)
    r2 = ex.parse("(x4 - x3*inv(x1)*x2)*inv(1 + x2*inv(x1)*inv(x1)*x2)", d=d)
    rhs = ex.add(ex.mul(r1, ex.involution(r1)), ex.mul(r2, ex.involution(r2)))
    rng = np.random.default_rng(2)
    compared = 0
    worst = 0.0
    trials = 0
    while compared < 100 and trials < 2000:
        trials += 1
        n = 1 + trials % 4
        X = random_tuple(d, n, n, mode="hermitian", rng=rng)
        # generic hermitian X1 is invertible, so ker X1 cap ker X2 = 0
        try:
            a = eval_expr(lhs, X)
            b = eval_expr(rhs, X)
        except DomainError:
            continue
        compared += 1
        worst = max(worst, np.max(np.abs(a - b)) / (1 + np.max(np.abs(a))))
    ok = compared == 100 and worst <= 1e-8
    _report(2, ok, f"{compared} samples, worst residual {worst:.2e}")


def test_criterion_3_adjoint_identity():
    lhs = ex.parse("x1*adj(x1) - 1", d=1, split_adjoint=True)
    rhs = ex.parse(
        "(x1 - inv(adj(x1)))*(adj(x1) - inv(x1))"
        " + inv(adj(x1))*(adj(x1)*x1 - 1)*inv(x1)",
        d=1, split_adjoint=True)
    passed, worst, compared = check_identity(lhs, rhs, mode="hermitian",
                                             samples=100, max_size=4, seed=3)
    ok = passed and compared == 100 and worst <= 1e-8
    _report(3, ok, f"{compared} samples, worst residual {worst:.2e}")


def test_criterion_4_fullness_verdicts():
    not_full = HomogeneousPencil((np.array([[1.0, 0.0], [1.0, 0.0]]),
                                  np.array([[0.0, 1.0], [0.0, 1.0]])))
    full4 = HomogeneousPencil((
        np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]]),
    ))
    ok = True
    witness_size = None
    for seed in range(10):
        rep_nf = is_full(not_full, seed=seed)
        rep_f = is_full(full4, seed=seed)
        ok = ok and rep_nf.verdict == "not-full-probabilistic"
        ok = ok and rep_f.verdict == "full" and rep_f.size_probed == 1
        witness_size = rep_f.size_probed
    _report(4, ok, f"stable verdicts over 10 seeds, full witness n={witness_size}")


def test_criterion_5_square_extension():
    rng = np.random.default_rng(5)
    done = 0
    worst_ratio = np.inf
    blocks_checked = 0
    attempts = 0
    while done < 100 and attempts < 3000:
        attempts += 1
        e = int(rng.integers(1, 4))
        ell = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        d = 2
        L = HomogeneousPencil(tuple(rng.standard_normal((e, e))
                                    for _ in range(d)))
        Y = random_tuple(d, ell, ell, mode="generic", rng=rng)
        Yp = random_tuple(d, m, ell, mode="generic", rng=rng)
        Ypp = random_tuple(d, ell, m, mode="generic", rng=rng)
        col_ok, row_ok, _ = rank_conditions(L, Y, Yp, Ypp)
        if not (col_ok and row_ok):
            continue
        sq = extend_square(L, Y, Yp, Ypp, mode="sampling",
                           seed=int(rng.integers(1 << 30)))
        assert sq.n <= sq.bound_used
        smin, smax = sigma_extremes(rect_eval(L, sq.completed(Y, Yp, Ypp)))
        assert smin > 1e-9 * smax
        worst_ratio = min(worst_ratio, smin / smax)
        done += 1
        if blocks_checked < 10:
            try:
                sqb = extend_square(L, Y, Yp, Ypp, mode="blocks",
                                    seed=int(rng.integers(1 << 30)))
            except HypothesisError:
                continue
            from ncrat.extension import eps_assembly

            T = eps_assembly(Y, Yp, Ypp, sqb.parts, 1.0)
            bsmin, bsmax = sigma_extremes(rect_eval(L, T))
            assert bsmin > 1e-9 * bsmax
            blocks_checked += 1
    ok = done == 100 and blocks_checked >= 10
    _report(5, ok, f"{done} sampling instances (worst scaled sigma_min "
                   f"{worst_ratio:.2e}), {blocks_checked} block assemblies at eps=1")


def test_criterion_6_hermitian_extension():
    rng = np.random.default_rng(6)
    done = 0
    attempts = 0
    for text in ("inv(x1)", "inv(1 - x1*x2)"):
        r = ex.parse(text, d=2)
        got = 0
        while got < 25 and attempts < 1000:
            attempts += 1
            ell = int(rng.integers(1, 3))
            X = random_tuple(2, ell, ell, mode="hermitian", rng=rng)
            Y = random_tuple(2, 1, ell, mode="generic", rng=rng)
            try:
                out = extend_hermitian(r, X, Y, seed=int(rng.integers(1 << 30)))
            except HypothesisError:
                continue
            n = out.Z.rows
            Xt = out.Xtilde
            for j in range(2):
                assert np.array_equal(Xt[j][:ell, :ell], X[j])
                assert herm_deviation(Xt[j]) <= 1e-12
                ey = out.E @ np.vstack([Y[j], np.zeros((n - 1, ell))])
                assert np.max(np.abs(Xt[j][ell:, :ell] - ey)) <= 1e-12
            ok_dom, _ = in_domain(r, Xt, d=2)
            assert ok_dom
            got += 1
            done += 1
    _report(6, done == 50, f"{done}/50 extensions with exact blocks, "
                           f"hermitian deviation <= 1e-12, in-domain")


def test_criterion_7_domain_widening():
    r = ex.parse("inv(x4 - x3*inv(x1)*x2)", d=4)
    coeffs = [np.zeros((2, 2)),
              np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]),
              np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])]
    e2 = np.array([0.0, 1.0])
    w = widen_hdom(r, pencil_override=(e2, coeffs, e2), d=4)
    X = MatrixTuple(tuple(np.array([[v]]) for v in (0.0, 1.0, 1.0, 1.0)),
                    hermitian=True)
    raised = False
    try:
        eval_expr(r, X)
    except DomainError:
        raised = True
    val = eval_expr(w, X)[0, 0]
    oracle = np.linalg.inv(np.array([[0.0, 1.0], [1.0, 1.0]]))[1, 1]
    ok = raised and abs(val - oracle) <= 1e-10
    _report(7, ok, f"original raises domain error; widened value {abs(val):.2e} "
                   f"matches inverse-entry oracle {oracle:.1f}")


def test_criterion_8_optimization_oracles():
    sup_x1 = optimize_eig(ex.var(1), INTERVAL, direction="sup", level=1, seed=0)
    r = ex.parse("inv(2 - x1)", d=1)
    sup_res = optimize_eig(r, INTERVAL, direction="sup", level=2, seed=0)
    inf_sq = optimize_eig(ex.parse("x1*x1", d=1), direction="inf", level=1, seed=0)
    ok = (sup_x1.status == "optimal" and abs(sup_x1.mu - 1.0) <= 1e-6
          and sup_res.status == "optimal" and abs(sup_res.mu - 1.0) <= 1e-4
          and inf_sq.status == "optimal" and abs(inf_sq.mu) <= 1e-6)
    _report(8, ok, f"sup x1 = {sup_x1.mu:.8f}, sup 1/(2-x1) = {sup_res.mu:.6f}, "
                   f"inf x1^2 = {inf_sq.mu:.2e}")


def test_criterion_9_certificate_at_theoretical_level():
    r = ex.parse("x1*x1", d=1)
    level = 1
    assert level <= 2 * ex.tau(r) + 1
    cert = certify_qm(r, level=level, seed=0)
    ok = (cert is not None and cert.residual <= 1e-6
          and 1 <= len(cert.squares) <= cert.carath_bound)
    nsq = 0 if cert is None else len(cert.squares)
    bound = 0 if cert is None else cert.carath_bound
    _report(9, ok, f"x1^2 certified at level {level} with {nsq} squares "
                   f"<= bound {bound}")


def test_criterion_10_sdp_kernel():
    E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    E22 = np.array([[0.0, 0.0], [0.0, 1.0]])
    E12S = np.array([[0.0, 0.5], [0.5, 0.0]])

    def con(blocks, free, rhs):
        return SDPConstraint(tuple(np.asarray(A, dtype=complex) for A in blocks),
                             np.asarray(free, dtype=float), rhs)

    # max t with [[1, t], [t, 1]] psd: boundary optimum t* = 1
    boundary = SDPProblem((2,), 1, (np.zeros((2, 2), dtype=complex),),
                          np.array([-1.0]),
                          (con([E11], [0.0], 1.0), con([E22], [0.0], 1.0),
                           con([E12S], [-1.0], 0.0)))
    sol = solve(boundary)
    ok = sol.status == "optimal" and abs(sol.free[0] - 1.0) <= 1e-6

    rng = np.random.default_rng(10)
    worst_gap = 0.0
    worst_agree = 0.0
    for _ in range(20):
        n, m = 3, 4
        A = []
        for _ in range(m):
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            A.append((G + G.conj().T) / 2)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X0 = G @ G.conj().T + np.eye(n)
        b = [float(np.trace(Ai @ X0).real) for Ai in A]
        z0 = rng.standard_normal(m)
        C = np.eye(n) + sum(z0[i] * A[i] for i in range(m))
        p = SDPProblem((n,), 0, (C,), np.zeros(0),
                       tuple(con([Ai], [], bi) for Ai, bi in zip(A, b)))
        sc = solve(p)
        sr = solve(realify(p))
        assert sc.status == "optimal" and sr.status == "optimal"
        worst_gap = max(worst_gap, sc.gap, sr.gap)
        worst_agree = max(worst_agree, abs(sc.objective - sr.objective)
                          / (1 + abs(sc.objective)))
    ok = ok and worst_gap <= 1e-7 and worst_agree <= 1e-7
    _report(10, ok, f"t* = {sol.free[0]:.8f}; 20 random SDPs worst gap "
                    f"{worst_gap:.2e}, realified agreement {worst_agree:.2e}")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    X = random_tuple(2, 2, 2, mode="hermitian", seed=5)
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps(X.to_json()))
    tall = random_tuple(2, 2, 1, mode="generic", seed=6)
    tall_path = tmp_path / "tall.json"
    tall_path.write_text(json.dumps(tall.to_json()))
    full = HomogeneousPencil((np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])))
    pencil_path = tmp_path / "pencil.json"
    pencil_path.write_text(json.dumps(full.to_json()))
    sq = random_tuple(2, 1, 1, mode="generic", seed=7)
    sq_path = tmp_path / "sq.json"
    sq_path.write_text(json.dumps(sq.to_json()))
    y1 = random_tuple(2, 1, 1, mode="generic", seed=8)
    y1_path = tmp_path / "y1.json"
    y1_path.write_text(json.dumps(y1.to_json()))
    lmi_path = tmp_path / "lmi.json"
    lmi_path.write_text(json.dumps({"e": 2, "H": [matrix_to_json(H)
                                                  for H in INTERVAL.coeffs[1:]]}))
    herm1 = random_tuple(2, 1, 1, mode="hermitian", seed=9)
    herm_path = tmp_path / "h.json"
    herm_path.write_text(json.dumps(herm1.to_json()))

    commands = [
        ["eval", "x1*x2", "--at", str(x_path)],
        ["realize", "inv(1-x1)"],
        ["full", str(pencil_path), "--seed", "7"],
        ["extend", "side", "--pencil", str(pencil_path), "--x", str(tall_path),
         "--seed", "7"],
        ["extend", "square", "--pencil", str(pencil_path), "--y", str(sq_path),
         "--yp", str(y1_path), "--ypp", str(y1_path), "--seed", "7"],
        ["extend", "hermitian", "inv(2-x1)", "--x", str(herm_path), "--seed", "7"],
        ["extend", "nonhermitian", "inv(2-x1)", "--x", str(herm_path),
         "--seed", "7"],
        ["widen", "inv(x1)", "--seed", "7"],
        ["basis", "inv(1-x1)", "--level", "1", "--seed", "7"],
        ["certify", "x1*x1", "--seed", "7"],
        ["optimize", "x1", "--sup", "--lmi", str(lmi_path), "--seed", "7"],
        ["export-sdpa", "x1*x1", "--out", str(tmp_path / "p.dat-s"),
         "--seed", "7"],
    ]
    stable = 0
    for argv in commands:
        cli_main(argv)
        out1 = capsys.readouterr().out
        cli_main(argv)
        out2 = capsys.readouterr().out
        assert out1 == out2, f"non-deterministic output for {argv[0]}"
        stable += 1
    _report(11, stable == len(commands),
            f"{stable}/{len(commands)} subcommands byte-identical across runs")
