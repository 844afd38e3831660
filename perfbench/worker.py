"""One benchmark process: set up, run the closed loop, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --mode setup|run|trace [--size full|tiny] [--deadline EPOCH]

Set-up is timed from before the first latticeops import: importing the
package and one warm-up job per pool entry (for cli-script: a cold
``import latticeops.cli``).  ``run`` then measures single-client
closed-loop jobs for at least S seconds of job time and --min-jobs jobs,
in whole rounds of the pool.  ``trace`` runs each round twice, untraced
and then traced, until S seconds of untraced job time.  The report is the
last line of stdout (JSON).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time

def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--first-job", type=int, default=0,
                   help="index of the first job; inputs are a function of it")
    p.add_argument("--min-jobs", type=int, default=0,
                   help="do not stop before this many jobs")
    p.add_argument("--deadline", type=float, default=None,
                   help="wall-clock epoch after which no new round starts")
    return p.parse_args(argv)


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(),
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__, "python": platform.python_version()}


def closed_loop(wl, seconds, deadline, first=0, min_jobs=0, rounds=None, tracer=None):
    """Run jobs one after another; stop at a round boundary once ``seconds``
    of job time and ``min_jobs`` jobs (or ``rounds`` rounds) are done, or
    past ``deadline``.  At least one round runs."""
    k = len(wl.pool)
    lat, recs = [], []
    busy, i = 0.0, 0
    while True:
        if i % k == 0 and i > 0:
            done = i >= rounds * k if rounds is not None else \
                busy >= seconds and i >= min_jobs
            if done or time.time() > deadline:
                break
        job = wl.job(first + i)
        if tracer is not None:
            tracer.job = first + i
        t = time.perf_counter()
        try:
            out, err = wl.run(job), None
        except Exception as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.job = None
        busy += dt
        lat.append(dt)
        if err is None:
            try:
                out = wl.after(job, out)
            except Exception as exc:
                err = f"oracle {type(exc).__name__}: {exc}"
        recs.append((job, out, err))
        i += 1
    return lat, recs


def check(wl, recs):
    """Reason or None per job; a crashing oracle fails its jobs."""
    reasons = [err for _, _, err in recs]
    good = [j for j, r in enumerate(reasons) if r is None]
    try:
        verdicts = wl.verify([(recs[j][0], recs[j][1]) for j in good])
    except Exception as exc:
        verdicts = [f"oracle {type(exc).__name__}: {exc}"] * len(good)
    for j, v in zip(good, verdicts):
        reasons[j] = v
    return reasons


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def main(argv=None):
    args = parse_args(argv)
    deadline = args.deadline if args.deadline is not None else time.time() + 150
    here = os.path.dirname(os.path.abspath(__file__))
    cli = args.workload == "cli-script"

    t0 = time.perf_counter()
    if cli:
        import latticeops.cli  # noqa: F401 - the cold import is the set-up
        setup_s = time.perf_counter() - t0
    else:
        import workloads
        wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
        wl.warm_up()
        setup_s = time.perf_counter() - t0
    report = {"setup_s": setup_s}
    import tracer as tr

    setup_cache = None if cli else tr.dft_cache_counts(sys.modules["latticeops.core"])
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    import workloads

    workdir = None
    try:
        if cli:
            workdir = os.path.join(os.path.dirname(here), ".perfbench_tmp",
                                   f"cli-{args.seed}-{os.getpid()}")
            os.makedirs(workdir, exist_ok=True)
            wl = workloads.CliScript(args.seed, args.size, workdir,
                                     child=os.path.join(here, "cli_child.py"))
        report.update(machine=machine(), dims=wl.describe(),
                      input_hash=wl.input_hash(), seed=args.seed,
                      pool=[e[0] for e in wl.pool])
        if args.mode == "trace":
            spans_path = os.path.join(".perfbench_out",
                                      f"spans-{args.workload}-{args.seed}.json")
            lat, recs, report["trace"] = traced_pass(
                wl, args.seconds, deadline, args.first_job, cli, spans_path, setup_cache)
        else:
            lat, recs = closed_loop(wl, args.seconds, deadline, first=args.first_job,
                                    min_jobs=args.min_jobs)
        report["peak_rss_mb"] = peak_rss_mb(children=cli)
        reasons = check(wl, recs)
        report.update(latencies=lat, labels=[wl.pool[wl.entry(args.first_job + j)][0]
                                              for j in range(len(lat))],
                      failures=reasons)
        if cli:
            report["io_bytes"] = [rec["io_bytes"] if err is None else 0
                                  for _, rec, err in recs]
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def traced_pass(wl, seconds, deadline, first, cli, spans_path, setup_cache):
    """Whole rounds of the pool, each run untraced and then again with spans
    on, until ``seconds`` of untraced job time.  Alternating the two keeps
    drift of the machine's speed out of the tracing overhead.

    Returns the untraced latencies and records, and the traced pass's
    per-layer metrics; the spans are written to ``spans_path`` at the end.
    An in-process workload's DFT cache counts are those of set-up
    (``setup_cache``) plus the change over the traced jobs; the untraced
    rounds and the oracle's lookups are left out."""
    import tracer as tr

    t = None if cli else tr.Tracer().install()
    cache = setup_cache
    lat, recs, tlat, trecs = [], [], [], []
    while not lat or (sum(lat) < seconds and time.time() < deadline):
        start = first + len(lat)
        a, b = closed_loop(wl, 0.0, deadline + 20, start, rounds=1)
        lat += a
        recs += b
        wl.traced = True
        before = t and t.dft_cache_info()
        a, b = closed_loop(wl, 0.0, deadline + 20, start, rounds=1, tracer=t)
        after = t and t.dft_cache_info()
        wl.traced = False
        tlat += a
        trecs += b
        if cache is not None:
            cache = {k: cache[k] + after[k] - before[k] for k in cache}
    if cli:
        spans, absent, processes = [], set(), []
        for data in wl.child_traces:
            off = len(spans)
            own = [[s[0], s[1], s[2], s[3] + off if s[3] >= 0 else -1, s[4], s[5]]
                   for s in data["spans"]]
            spans += own
            absent.update(data["absent"])
            processes.append((data["dft_cache"], own))
    else:
        spans, absent = t.spans, set(t.absent)
        processes = [(cache, spans)]
    per_layer = tr.summarize(spans, len(tlat))
    per_layer.update(tr.dft_cache_metrics(processes))
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job", "info"],
                   "spans": spans}, fh)
    return lat, recs, {"latencies": tlat, "failures": check(wl, trecs),
                       "per_layer": per_layer, "absent": sorted(absent),
                       "spans": len(spans), "spans_file": spans_path}


if __name__ == "__main__":
    sys.exit(main())
