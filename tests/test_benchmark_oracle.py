"""The benchmark's workloads and oracle against the library.

``perfbench/workloads.py`` and ``perfbench/worker.py`` are loaded from
their files, read only: one tiny round of three workloads runs through
the benchmark's closed loop and checker, and the CLI script computes its
in-process answers, so a library change that breaks the surface the
benchmark reads fails here and not only under ``pytest perfbench``.
"""

import importlib.util
from pathlib import Path

import pytest

import latticeops as lo
from latticeops.fredholm import _evidence

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
worker = _load("worker")


@pytest.mark.parametrize("cls", [workloads.SolveN2, workloads.IndexN1, workloads.ApplyN2],
                         ids=lambda cls: cls.name)
def test_one_tiny_round_passes_the_oracle(cls):
    wl = cls(7, "tiny")
    lat, recs = worker.closed_loop(wl, 0.0, float("inf"), rounds=1)
    assert len(lat) == len(wl.pool)
    assert worker.check(wl, recs) == [None] * len(wl.pool)


def _routes(wl, recs):
    """The route of each window of each index job, by pool label."""
    return {wl.pool[job[0]][0]: [e.route for e in out[1].gap_evidence]
            for job, out, _ in recs if out[0] == "index"}


DEFECT_ROUTES = {"perturbed-jump": "deflated", "perturbed_bessel": "certified"}


def test_tiny_index_round_decides_one_block_sections_from_the_defects():
    wl = workloads.IndexN1(7, "tiny")
    _, recs = worker.closed_loop(wl, 0.0, float("inf"), rounds=1)
    routes = _routes(wl, recs)
    for label, route in DEFECT_ROUTES.items():
        assert routes[label] == [route] * len(wl.windows)
    assert routes["jump+1"] == ["blocks"] * len(wl.windows)


def test_index_pool_runs_no_p_by_p_svd_or_solve_on_one_block_sections(svd_shapes, solve_shapes):
    wl = workloads.IndexN1(7, "full")
    jobs = [(e,) for e, (label, *_) in enumerate(wl.pool) if label in DEFECT_ROUTES]
    recs = [(job, wl.run(job), None) for job in jobs]
    assert worker.check(wl, recs) == [None] * len(jobs)
    assert _routes(wl, recs) == {label: [route] * 3 for label, route in DEFECT_ROUTES.items()}
    sizes = {2 * N + 1 for N in wl.windows}
    assert not any(shape[-2:] == (P, P) for shape, _ in svd_shapes for P in sizes)
    assert not any(shape[-2:] == (P, P) for shape in solve_shapes for P in sizes)


@pytest.mark.parametrize("size", ["tiny", "full"])
def test_index_pool_shares_one_parametrix_with_the_direct_evidence(size, same_evidence):
    # full_index_report restricts the largest window's parametrix to each
    # smaller one; the oracle is a three-step parametrix built directly on
    # each window, on the same grid
    wl = workloads.IndexN1(7, size)
    windows = [lo.LatticeWindow(1, N) for N in wl.windows]
    grid = lo.index_grid(windows[-1])
    for label, sigma, want in wl.pool:
        if want is not None:
            direct = [_evidence([lo.assemble_matrix(sigma, w, grid)],
                                lo.parametrix(sigma, 0.0, 3, w, grid))[0] for w in windows]
            same_evidence(lo.full_index_report(sigma, wl.windows).gap_evidence, direct)


def test_index_pool_runs_no_solve(solve_shapes):
    # every job of the pool at full size, the jumps' null bases included,
    # which come from their blocks' SVDs
    wl = workloads.IndexN1(7, "full")
    recs = [((e,), wl.run((e,)), None) for e in range(len(wl.pool))]
    assert worker.check(wl, recs) == [None] * len(wl.pool)
    assert solve_shapes == []


def test_cli_script_computes_its_answers(tmp_path):
    # the constructor writes the input files and runs ``_expect``: the
    # parametrix's left residual, the order estimate and the certificate
    wl = workloads.CliScript(7, "tiny", workdir=str(tmp_path))
    assert wl.want_left > 0.0
    assert wl.want_elliptic
