"""Benchmark for latticeops: one closed-loop, single-client workload per call.

    python3 perfbench/run.py --workload solve-n2 --seed 1 --seconds 10 --trace 0

Run from the repository root; the library is imported from ``src``.
Workloads (see README.md): solve-n2, index-n1, apply-n2, cli-script.

``--trace 0`` prints the end-to-end metrics.  Two fresh interpreters
share the run's job time one after another; ``setup_s`` is the median of
their set-ups (apply-n2 adds one set-up-only interpreter before each and
cli-script three, for 4 and 8 samples).  ``--trace 1`` prints the
per-layer metrics of a separately traced pass (plus, for solve-n2, a pass
with BLAS pinned to one thread).  A detail report (machine, inputs, percentiles, failures) is
printed as JSON before the result, which is the last line of stdout.
The workload and metric names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

TIME_LIMIT = 170.0  # the whole call must end well inside 180 s
WORKERS = 2         # fresh processes per run; set-up samples and job-time shares
EXTRA_SETUPS = {"apply-n2": 1, "cli-script": 3}  # set-up-only processes per worker
# Jobs a run makes at least: 11 rounds of the pool (3, 7 and 3 entries).
# Then the tail (the 11th slowest job) is the fastest job of the slowest
# pool entry, so a regression in any one entry moves it.  11 rounds of
# cli-script would be 99 processes; 4 rounds put its tail in the middle of
# the solve/ft/invft latency cluster rather than on the cluster's edge.
MIN_JOBS = {"solve-n2": 33, "index-n1": 77, "apply-n2": 33, "cli-script": 36}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([w["name"] for w in spec["workloads"]],
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]])


WORKLOADS, END_TO_END, PER_LAYER = load_spec()


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny sizes are for the smoke test only")
    return p.parse_args(argv)


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_worker(args, mode, t_end, threads, seconds, first_job=0, min_jobs=0):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--first-job", str(first_job),
           "--min-jobs", str(min_jobs),
           "--mode", mode, "--size", args.size,
           "--deadline", repr(time.time() + max(0.0, t_end - time.perf_counter() - 30))]
    timeout = t_end - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=worker_env(threads), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} worker exceeded the time limit")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{mode} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail(values):
    """Highest order statistic with at least 10 samples above it.

    Returns (value, percentile, samples); with 10 or fewer samples the
    maximum is returned and the percentile reads 100.
    """
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0, n
    return v[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(args, t_end, threads):
    """WORKERS fresh processes share the run's job time; set-up is the
    median of their set-ups (plus the extra set-up-only processes)."""
    setups, reps, lat, labels, fails = [], [], [], [], []
    min_jobs = MIN_JOBS.get(args.workload, 0)
    for k in range(WORKERS):
        for _ in range(EXTRA_SETUPS.get(args.workload, 0)):
            setups.append(run_worker(args, "setup", t_end, threads, 0.0)["setup_s"])
        rep = run_worker(args, "run", t_end, threads,
                         seconds=args.seconds * (k + 1) / WORKERS - sum(lat),
                         first_job=len(lat),
                         min_jobs=min_jobs * (k + 1) // WORKERS - len(lat))
        reps.append(rep)
        setups.append(rep["setup_s"])
        lat += rep["latencies"]
        labels += rep["labels"]
        fails += rep["failures"]
    ok = [t for t, f in zip(lat, fails) if f is None]
    tail_v, tail_p, n = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "job_s.p50": statistics.median(lat),
        "job_s.tail": tail_v,
        "jobs_per_s": len(ok) / sum(lat),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
    }
    detail = {"setup_runs_s": setups,
              "jobs_per_worker": [len(r["latencies"]) for r in reps],
              "tail": {"percentile": tail_p, "samples": n},
              "job_s_by_symbol": by_label(lat, labels)}
    return metrics, reps[0], lat, fails, detail


def by_label(lat, labels):
    groups = {}
    for t, label in zip(lat, labels):
        groups.setdefault(label, []).append(t)
    return {k: statistics.median(v) for k, v in groups.items()}


def per_layer(args, t_end, threads):
    rep = run_worker(args, "trace", t_end, threads, args.seconds / 2)
    tr = rep["trace"]
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(tr["per_layer"])
    k = len(rep["pool"])
    metrics["trace.overhead_frac"] = sum(tr["latencies"]) / sum(rep["latencies"]) - 1.0
    if args.workload == "cli-script":
        for cmd, t in by_label(rep["latencies"], rep["labels"]).items():
            metrics[f"cli.{cmd}.s"] = t
        metrics["cli.io_bytes"] = sum(rep["io_bytes"]) / len(rep["io_bytes"])
    single = None
    if args.workload == "solve-n2":
        single = run_worker(args, "run", t_end, 1, args.seconds / 2)
        metrics["blas.single_thread_job_s.p50"] = statistics.median(single["latencies"])
    lat = rep["latencies"] + tr["latencies"]
    fails = rep["failures"] + tr["failures"]
    if single is not None:
        lat += single["latencies"]
        fails += single["failures"]
    detail = {"traced_jobs": len(tr["latencies"]), "rounds": len(tr["latencies"]) // k,
              "spans": tr["spans"], "spans_file": tr["spans_file"], "absent": tr["absent"],
              "single_thread_machine": single and single["machine"]}
    return metrics, rep, lat, fails, detail


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "latticeops", "__init__.py")):
        print("perfbench: src/latticeops not found; run from the root of a "
              "latticeops checkout", file=sys.stderr)
        return 2
    t_end = t_start + TIME_LIMIT
    compileall.compile_dir(os.path.join(SRC, "latticeops"), quiet=1)
    threads = len(os.sched_getaffinity(0))
    try:
        if args.trace:
            metrics, rep, lat, fails, detail = per_layer(args, t_end, threads)
            names = PER_LAYER
        else:
            metrics, rep, lat, fails, detail = end_to_end(args, t_end, threads)
            names = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    failed = [f for f in fails if f is not None]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "blas_threads_requested": threads,
        "machine": rep["machine"], "inputs": {"hash": rep["input_hash"],
                                              "dims": rep["dims"], "pool": rep["pool"]},
        "failed_frac": len(failed) / len(fails), "failures": failed[:10],
        **detail,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": not failed, "attempted": len(fails), "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
