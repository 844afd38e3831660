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


def test_cli_script_computes_its_answers(tmp_path):
    # the constructor writes the input files and runs ``_expect``: the
    # parametrix's left residual, the order estimate and the certificate
    wl = workloads.CliScript(7, "tiny", workdir=str(tmp_path))
    assert wl.want_left > 0.0
    assert wl.want_elliptic
