"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Runs every workload at tiny sizes and checks the output contract against
BENCHMARK.json, that a wrong expected answer shows up as failed jobs rather
than a crash, that inputs depend only on the seed, and that the benchmark
refuses to run without the library.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "0.3",
           "--size", "tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    report, out = result(bench("--workload", workload, "--seed", "3",
                               "--trace", str(trace)))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == list(expected)
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())
    assert report["failed_frac"] == 0.0
    assert report["machine"]["nproc"] >= 1 and report["inputs"]["hash"]
    if trace:
        assert report["absent"] == []
        assert out["metrics"]["layer.core.self_s"]["value"] > 0


def test_wrong_expected_answer_counts_as_failed_jobs():
    wl = workloads.IndexN1(3, "tiny")
    label, sigma, want = wl.pool[0]
    wl.pool[0] = (label, sigma, want + 1)
    lat, recs = worker.closed_loop(wl, 0.0, time.time() + 60, rounds=2)
    reasons = worker.check(wl, recs)
    assert len(reasons) == len(lat) == 2 * len(wl.pool)
    wrong = [r is not None for r in reasons]
    assert wrong == [job[0] == 0 for job, _, _ in recs]
    assert all(label in r for r in reasons if r is not None)


def test_same_seed_same_input_hash(tmp_path):
    for cls in (workloads.SolveN2, workloads.IndexN1, workloads.ApplyN2):
        assert cls(7, "tiny").input_hash() == cls(7, "tiny").input_hash()
        assert cls(7, "tiny").input_hash() != cls(8, "tiny").input_hash()
    hashes = []
    for seed in (7, 7, 8):
        d = tmp_path / f"cli{len(hashes)}"
        d.mkdir()
        hashes.append(workloads.CliScript(seed, "tiny", workdir=str(d)).input_hash())
    assert hashes[0] == hashes[1] != hashes[2]


def test_self_time_excludes_child_spans():
    spans = [["quantization.apply", 0.0, 1.0, -1, 0, None],
             ["core.forward_dft", 0.1, 0.3, 0, 0, None],
             ["symbols.Symbol.sample", 0.3, 0.9, 0, 0, {"P": 2, "Q": 3}],
             ["symbols.Symbol.sample_shifted", 0.4, 0.8, 2, 0, {"P": 2, "Q": 3}]]
    m = tracer.summarize(spans, jobs=1)
    assert m["quantization.apply.self_s"] == pytest.approx(0.2)
    assert m["symbols.sample.s"] == pytest.approx(0.6)
    assert m["symbols.sample.calls"] == 1
    assert m["symbols.sample.bytes"] == 16 * 2 * 3
    assert m["layer.symbols.self_s"] == pytest.approx(0.6)


def test_removed_function_is_reported_absent():
    code = ("import sys; sys.path[:0] = [%r, %r]\n"
            "import latticeops.core as c, latticeops.quantization as q\n"
            "del c._dft_matrix; del q._dft_matrix; del c.phase_matrix\n"
            "import tracer; t = tracer.Tracer().install(); print(t.absent)\n"
            % (SRC, HERE))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "core._dft_matrix" in proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-n2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
