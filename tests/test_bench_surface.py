"""The program surface the perfbench harness relies on.

perfbench wraps functions by name (`tracer.LAYER_FUNCTIONS`) and builds SDP
problems positionally through `SDPConstraint`/`SDPProblem`; a rename or
deletion in the package would break the harness without failing any other
test.  The harness files are loaded read-only from their paths.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from ncrat import expr as ex
from ncrat import gnsbasis, sdpcore

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_traced_functions_resolve(tracer):
    for layer, fns in tracer.LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"ncrat.{layer}")
        for fn in fns:
            assert callable(getattr(mod, fn, None)), f"ncrat.{layer}.{fn}"


def test_tracer_installs_and_uninstalls(tracer):
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = {b.rsplit(".", 1)[1] for b in t.bindings()}
    finally:
        t.uninstall()
    names = {fn for fns in tracer.LAYER_FUNCTIONS.values() for fn in fns}
    assert names <= wrapped
    assert not hasattr(sdpcore.solve, "__wrapped__")


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_positional_problem_round_trips(workloads, tracer, tmp_path, k):
    # the sdp-random workload's construction, one instance of each data kind
    dims, m, nfree, cplx = workloads._sdp_shape(k)
    p = workloads._random_sdp(np.random.default_rng(k), dims, m, nfree, cplx)
    assert isinstance(p, sdpcore.SDPProblem)
    assert p.m == len(p.constraints) == m
    assert p.block_dims == tuple(dims)
    assert all(isinstance(c, sdpcore.SDPConstraint) for c in p.constraints)
    path = str(tmp_path / "p.dat-s")
    sdpcore.export_sdpa(p, path)
    assert workloads._check_roundtrip(p)(sdpcore.import_sdpa(path)) is None
    if k == 0:
        sol = sdpcore.solve(p)
        assert workloads._check_kkt(p)(sol) is None
        counts = tracer._count("sdpcore.solve", (p,), sol)
        assert counts["m"] == m and counts["optimal"]


def test_basis_counters_read(tracer):
    # the per-layer counters read these fields of real results
    R = gnsbasis.build_R(ex.parse("inv(2-x1)"))
    basis = gnsbasis.build_basis(R, 1, seed=0)
    counts = tracer._count("gnsbasis.build_basis", (R, 1), basis)
    assert counts == {"dim": basis.dim, "samples": len(basis.tables)} and basis.dim > 0
    pts = gnsbasis.sample_points(R, [1, 2], np.random.default_rng(0), per_size=2)
    assert tracer._count("gnsbasis.sample_points", (R, [1, 2]), pts) == {"admitted": 4}


@pytest.mark.parametrize("name", ["psatz-oracle", "sdp-random", "widen-domain",
                                  "pencil-extend"])
def test_job_lists_build(workloads, tmp_path, name):
    jobs = workloads.build(name, 0, str(tmp_path))
    assert jobs and all(callable(j.run) and callable(j.check) for j in jobs)


def test_pencil_extend_jobs_pass(workloads, tmp_path):
    # the checkers call eps_assembly, SquareExtension.parts and the completed()
    # methods, which no other test reaches through the harness; about 0.3 s
    for job in workloads.build("pencil-extend", 0, str(tmp_path)):
        assert job.check(job.run()) is None, job.name


def test_jammed_sdp_random_solve_passes(workloads, tmp_path):
    # with one BLAS thread the iteration jams on this instance at a gap just
    # above TOL_GAP, its steps collapsing to 1e-8 and below, and stops at a
    # breakdown; judged at ACCEPT_TOL, the iterate it stopped at is optimal
    # and passes the KKT checker
    job = next(j for j in workloads.build("sdp-random", 12, str(tmp_path))
               if j.name.startswith("solve #9 "))
    assert job.check(job.run()) is None
