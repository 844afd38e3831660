"""The four workloads: seeded inputs, the timed job, and its oracle.

Every input is a pure function of (seed, job index): job ``i`` belongs to
round ``i // len(pool)`` and each round runs every pool entry once, in a
seeded order, so the mix of symbols is exact in every run.  Only public
latticeops API is called.  ``run`` is the timed part; ``after`` (right
after the job) and ``verify`` (after the loop) are the untimed oracle and
return ``None`` for a correct job or a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np

import latticeops as lo

SOLVE_TOL = 1e-10
RESIDUAL_CHECK = 1e-8     # independent residual through apply, relative to |f|
MATCH_TOL = 1e-9          # relative max-difference for recomputed outputs

SIZES = {
    # solve N, apply N, index windows, CLI apply/solve N, CLI index windows,
    # CLI parametrix/classify N
    "full": {"solve": 16, "apply": 24, "index": (128, 192, 256),
             "cli_apply": 24, "cli_solve": 12, "cli_index": (64, 96, 128),
             "cli_N": 64},
    "tiny": {"solve": 4, "apply": 4, "index": (16, 24, 32),
             "cli_apply": 4, "cli_solve": 4, "cli_index": (16, 24, 32),
             "cli_N": 16},
}

N2_POOL = (
    ("expr-order0",
     "2 + exp(i*twopi*x1)/(1+k1^2+k2^2) + 0.5*cos(twopi*x2)/(1+k1^2)", 0.0),
    ("expr-order2", "(1+k1^2+k2^2)*(1 + 0.3*cos(twopi*(x1+x2)))", 2.0),
    ("bessel2", None, 2.0),
)


def _n2_pool():
    return [(label, lo.bessel_symbol(2, n=2) if text is None
             else lo.parse_symbol(text, 2, order=m), m)
            for label, text, m in N2_POOL]


class Workload:
    name = ""
    pool = ()
    traced = False  # set while a traced round runs; only CliScript reads it

    def __init__(self, seed: int, size: str = "full"):
        self.seed = int(seed)
        self.sizes = SIZES[size]

    def rng(self, stream: int, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream, index])

    def entry(self, i: int) -> int:
        k = len(self.pool)
        return int(self.rng(0, i // k).permutation(k)[i % k])

    def job(self, i: int, warm: bool = False):
        """Inputs of job ``i`` (``warm``: the untimed warm-up stream)."""
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    def after(self, job, out):
        """Untimed, right after the job; its result is kept as the record."""
        return out

    def verify(self, records):
        """records: (job, record) pairs -> reason or None per job."""
        raise NotImplementedError

    def warm_up(self):
        for e in range(len(self.pool)):
            self.run(self.job(e, warm=True))

    def job_bytes(self, job) -> bytes:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def input_hash(self) -> str:
        """Hash of the pool, sizes and the first two rounds of inputs."""
        h = hashlib.sha256(json.dumps(self.describe(), sort_keys=True).encode())
        h.update(repr([label for label, *_ in self.pool]).encode())
        for i in range(2 * len(self.pool)):
            h.update(self.job_bytes(self.job(i)))
        return h.hexdigest()[:16]


def _dims(window, grid) -> dict:
    return {"n": window.n, "N": window.N, "M": grid.M,
            "P": window.size, "Q": grid.size}


def _rel_diff(a, b) -> float:
    scale = max(1.0, float(np.max(np.abs(b))))
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


class SolveN2(Workload):
    """solve(sigma, m, f, window, grid, tol=1e-10) at n=2, one fresh
    interior-supported right-hand side per job."""

    name = "solve-n2"

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.window = lo.LatticeWindow(2, self.sizes["solve"])
        self.grid = lo.default_grid(self.window)
        self.margin = lo.interior_margin(self.window)
        self.pool = _n2_pool()

    def job(self, i, warm=False):
        e = i % len(self.pool) if warm else self.entry(i)
        f = lo.LatticeSequence.random(self.window, self.rng(2 if warm else 1, i),
                                      margin=self.margin)
        return e, f

    def run(self, job):
        e, f = job
        _, sigma, m = self.pool[e]
        return lo.solve(sigma, m, f, self.window, self.grid, tol=SOLVE_TOL)

    def verify(self, records):
        mask = self.window.interior_mask(self.margin)
        out = []
        for (e, f), res in records:
            sigma = self.pool[e][1]
            r = f.values - lo.apply(sigma, res.solution, self.grid).values
            rel = float(np.linalg.norm(r[mask])) / max(f.norm(), 1e-300)
            out.append(None if rel <= RESIDUAL_CHECK else
                       f"{self.pool[e][0]}: independent interior residual {rel:.2e}")
        return out

    def job_bytes(self, job):
        return bytes([job[0]]) + job[1].values.tobytes()

    def describe(self):
        return _dims(self.window, self.grid)


class ApplyN2(Workload):
    """apply(sigma, f, grid) then sobolev_norm(2, .) at n=2 on a fresh
    seeded sequence per job; one window for all jobs."""

    name = "apply-n2"

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.window = lo.LatticeWindow(2, self.sizes["apply"])
        self.grid = lo.default_grid(self.window)
        self.pool = _n2_pool()

    def job(self, i, warm=False):
        e = i % len(self.pool) if warm else self.entry(i)
        return e, lo.LatticeSequence.random(self.window, self.rng(2 if warm else 1, i))

    def run(self, job):
        e, f = job
        u = lo.apply(self.pool[e][1], f, self.grid)
        return u, lo.sobolev_norm(2.0, u)

    def verify(self, records):
        """One assembled matrix per distinct symbol; multipliers exactly
        against bessel_apply."""
        reasons = [None] * len(records)
        for e, (label, sigma, _) in enumerate(self.pool):
            idx = [j for j, ((je, _), _) in enumerate(records) if je == e]
            if not idx:
                continue
            if isinstance(sigma, lo.BesselSymbol):
                expect = lambda f: lo.bessel_apply(sigma.s, f).values
            else:
                A = lo.assemble_matrix(sigma, self.window, self.grid)
                expect = lambda f, A=A: A.matvec(f).values
            for j in idx:
                (_, f), (u, norm) = records[j]
                want = expect(f)
                d = _rel_diff(u.values, want)
                want_norm = lo.sobolev_norm(2.0, lo.LatticeSequence(self.window, want))
                dn = abs(norm - want_norm) / max(want_norm, 1e-300)
                if d > MATCH_TOL or dn > MATCH_TOL:
                    reasons[j] = f"{label}: output differs by {d:.2e}, norm by {dn:.2e}"
        return reasons

    def job_bytes(self, job):
        return bytes([job[0]]) + job[1].values.tobytes()

    def describe(self):
        return _dims(self.window, self.grid)


class IndexN1(Workload):
    """What `latticeops index` does at n=1: the certificate at the largest
    window, then full_index_report, or the probe for a non-elliptic symbol."""

    name = "index-n1"

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.windows = list(self.sizes["index"])
        self.window = lo.LatticeWindow(1, max(self.windows))
        self.grid = lo.default_grid(self.window)
        c = 0.1 + 0.1 * float(self.rng(3, 0).random())
        jump2 = "step(k1)*exp({}2*i*twopi*x1) + (1-step(k1))"
        self.coefficient = c
        self.pool = [
            ("jump+1", lo.jump_symbol(+1), 1),
            ("jump-1", lo.jump_symbol(-1), -1),
            ("jump+2", lo.parse_symbol(jump2.format(""), 1, order=0), 2),
            ("jump-2", lo.parse_symbol(jump2.format("-"), 1, order=0), -2),
            ("perturbed-jump", lo.parse_symbol(
                "step(k1)*exp(i*twopi*x1) + (1-step(k1))"
                f" + {c!r}*exp(-i*twopi*x1)/(1+k1^2)", 1, order=0), 1),
            ("perturbed_bessel", lo.shipped_symbol("perturbed_bessel"), 0),
            ("non-elliptic", lo.parse_symbol("1 - step(k1)", 1, order=0), None),
        ]

    def job(self, i, warm=False):
        return (i % len(self.pool) if warm else self.entry(i)),

    def run(self, job):
        sigma = self.pool[job[0]][1]
        cert = lo.check_ellipticity(sigma, 0.0, self.window, self.grid)
        if cert.elliptic:
            return "index", lo.full_index_report(sigma, self.windows, n=1)
        return "probe", lo.fredholm_ellipticity_probe(sigma, self.windows, n=1)

    def verify(self, records):
        out = []
        for (e,), (kind, rep) in records:
            label, _, want = self.pool[e]
            if want is None:
                ok = kind == "probe" and not rep.elliptic and rep.consistent is True
                got = f"{kind} consistent={getattr(rep, 'consistent', None)}"
            else:
                ok = kind == "index" and rep.svd_index == want and rep.trace_index == want
                got = f"{kind} svd={getattr(rep, 'svd_index', None)} " \
                      f"trace={getattr(rep, 'trace_index', None)}"
            out.append(None if ok else f"{label}: expected {want}, got {got}")
        return out

    def job_bytes(self, job):
        return repr((job[0], self.pool[job[0]][1])).encode()

    def describe(self):
        return {**_dims(self.window, self.grid), "windows": self.windows,
                "perturbation": self.coefficient}


# -- CLI script ----------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _read_csv_values(path, ncoords):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([complex(float(r[ncoords]), float(r[ncoords + 1])) for r in rows])


class CliScript(Workload):
    """A fixed sequence of `latticeops` processes with --json --no-timestamp
    on seed-generated files; one process is one job.  The cheap ``norm``
    makes the sequence nine long, so the median job lands inside one
    command's latency cluster rather than between two."""

    name = "cli-script"
    REQUIRED = {
        "apply": ("config", "input_norms", "output_norms", "output_file"),
        "solve": ("residual_interior", "iterations", "fallback_used", "output_file"),
        "index": ("elliptic", "svd_index", "trace_index", "agreement"),
        "parametrix": ("steps", "max_left_residual", "decay"),
        "classify": ("estimated_order", "ellipticity"),
        "ft": ("output_max", "output_file"),
        "invft": ("output_norms", "output_file"),
        "norm": ("sobolev_norm", "l2_norm"),
        "verify": ("all_passed", "suites"),
    }

    def __init__(self, seed, size="full", workdir=None, child=None):
        super().__init__(seed, size)
        self.workdir, self.child = workdir, child
        self.child_traces = []
        s = self.sizes
        rng = self.rng(1, 0)
        p = lambda name: os.path.join(workdir, name)
        w_apply = lo.LatticeWindow(2, s["cli_apply"])
        w_solve = lo.LatticeWindow(2, s["cli_solve"])
        self.f_apply = lo.LatticeSequence.random(w_apply, rng)
        self.f_solve = lo.LatticeSequence.random(
            w_solve, rng, margin=lo.interior_margin(w_solve))
        self.sigma = lo.parse_symbol(N2_POOL[0][1], 2, order=0)
        self.pb = lo.shipped_symbol("perturbed_bessel")
        lo.write_sequence_csv(p("f_apply.csv"), self.f_apply)
        lo.write_sequence_csv(p("f_solve.csv"), self.f_solve)
        lo.write_symbol_json(p("sigma.json"), self.sigma)
        lo.write_symbol_json(p("jump_plus.json"), lo.shipped_symbol("jump_plus"))
        lo.write_symbol_json(p("perturbed_bessel.json"), self.pb)
        windows = ",".join(str(N) for N in s["cli_index"])
        N = str(s["cli_N"])
        self.pool = [
            ("apply", [p("sigma.json"), p("f_apply.csv"), "--out", p("out_apply.csv")]),
            ("solve", [p("sigma.json"), p("f_solve.csv"), "--tol", repr(SOLVE_TOL),
                       "--out", p("out_solve.csv")]),
            ("index", [p("jump_plus.json"), "--windows", windows]),
            ("parametrix", [p("perturbed_bessel.json"), "--N", N]),
            ("classify", [p("perturbed_bessel.json"), "--N", N]),
            ("ft", [p("f_apply.csv"), "--out", p("out_ft.csv")]),
            ("invft", [p("out_ft.csv"), "--out", p("out_invft.csv")]),
            ("norm", [p("f_apply.csv"), "--s", "2"]),
            ("verify", []),
        ]
        self.inputs = {"apply": ["sigma.json", "f_apply.csv"],
                       "solve": ["sigma.json", "f_solve.csv"],
                       "index": ["jump_plus.json"],
                       "parametrix": ["perturbed_bessel.json"],
                       "classify": ["perturbed_bessel.json"],
                       "ft": ["f_apply.csv"], "invft": ["out_ft.csv"],
                       "norm": ["f_apply.csv"], "verify": []}
        self._expect()

    def _expect(self):
        """In-process answers for the oracle (untimed)."""
        g_apply = lo.default_grid(self.f_apply.window)
        self.grid_solve = lo.default_grid(self.f_solve.window)
        self.want_apply = lo.apply(self.sigma, self.f_apply, g_apply).values
        self.want_ft = lo.forward_dft(self.f_apply, g_apply).values
        w = lo.LatticeWindow(1, self.sizes["cli_N"])
        g = lo.default_grid(w)
        par = lo.parametrix(self.pb, 0.0, 2, w, g)
        self.want_left = float(np.max(np.abs(par.left_residual.values)))
        est = lo.estimate_order(self.pb, w, g, alpha_max=1, beta_max=1)
        self.want_order = est.m_hat
        self.want_elliptic = lo.check_ellipticity(self.pb, self.pb.order, w, g).elliptic

    def entry(self, i):
        return i % len(self.pool)  # fixed order: invft reads what ft wrote

    def job(self, i, warm=False):
        return i, self.entry(i)

    def run(self, job):
        i, e = job
        cmd, argv = self.pool[e]
        env = dict(os.environ)
        if self.traced:
            env["PERFBENCH_TRACE_OUT"] = os.path.join(self.workdir, f"trace-{i}.json")
            head = [sys.executable, self.child]
        else:
            head = [sys.executable, "-m", "latticeops.cli"]
        proc = subprocess.run(head + [cmd, *argv, "--json", "--no-timestamp"],
                              capture_output=True, text=True, env=env, timeout=170)
        return proc.returncode, proc.stdout, proc.stderr

    def after(self, job, out):
        i, e = job
        cmd = self.pool[e][0]
        rc, stdout, stderr = out
        io = len(stdout.encode()) + sum(
            os.path.getsize(os.path.join(self.workdir, f)) for f in self.inputs[cmd])
        reason = None
        try:
            if rc != 0:
                raise ValueError(f"exit code {rc}: {stderr.strip()[:200]}")
            rep = json.loads(stdout, parse_constant=_reject_constant)
            missing = [k for k in self.REQUIRED[cmd] if k not in rep]
            if missing:
                raise ValueError(f"missing fields {missing}")
            if "output_file" in rep:
                io += os.path.getsize(rep["output_file"])
            reason = getattr(self, f"_check_{cmd}")(rep)
        except Exception as exc:  # an oracle failure is a failed job, not a crash
            reason = f"{type(exc).__name__}: {exc}"
        if self.traced:
            self._load_trace(i)
        return {"cmd": cmd, "reason": None if reason is None else f"{cmd}: {reason}",
                "io_bytes": io}

    def verify(self, records):
        return [rec["reason"] for _, rec in records]

    def _load_trace(self, i):
        path = os.path.join(self.workdir, f"trace-{i}.json")
        with open(path) as fh:
            data = json.load(fh)
        os.remove(path)
        for s in data["spans"]:
            s[4] = i
        self.child_traces.append(data)

    # per-command value checks ------------------------------------------------

    def _check_apply(self, rep):
        d = _rel_diff(_read_csv_values(rep["output_file"], 2), self.want_apply)
        return None if d <= MATCH_TOL else f"output differs by {d:.2e}"

    def _check_solve(self, rep):
        if rep["residual_interior"] > SOLVE_TOL:
            return f"reported residual {rep['residual_interior']:.2e}"
        u = lo.LatticeSequence(self.f_solve.window,
                               _read_csv_values(rep["output_file"], 2))
        w = self.f_solve.window
        mask = w.interior_mask(lo.interior_margin(w))
        r = self.f_solve.values - lo.apply(self.sigma, u, self.grid_solve).values
        rel = float(np.linalg.norm(r[mask])) / self.f_solve.norm()
        return None if rel <= RESIDUAL_CHECK else f"independent residual {rel:.2e}"

    def _check_index(self, rep):
        ok = rep["elliptic"] is True and rep["svd_index"] == 1 and rep["trace_index"] == 1
        return None if ok else f"svd={rep['svd_index']} trace={rep['trace_index']}"

    def _check_parametrix(self, rep):
        d = abs(rep["max_left_residual"] - self.want_left) / max(self.want_left, 1e-300)
        return None if rep["steps"] == 2 and d <= MATCH_TOL else \
            f"max_left_residual {rep['max_left_residual']} vs {self.want_left}"

    def _check_classify(self, rep):
        ok = (abs(rep["estimated_order"] - self.want_order) <= MATCH_TOL
              and rep["ellipticity"]["elliptic"] == self.want_elliptic)
        return None if ok else f"order {rep['estimated_order']} vs {self.want_order}"

    def _check_ft(self, rep):
        d = _rel_diff(_read_csv_values(rep["output_file"], 2), self.want_ft)
        return None if d <= MATCH_TOL else f"transform differs by {d:.2e}"

    def _check_invft(self, rep):
        d = _rel_diff(_read_csv_values(rep["output_file"], 2), self.f_apply.values)
        return None if d <= MATCH_TOL else f"round trip differs by {d:.2e}"

    def _check_norm(self, rep):
        want = lo.sobolev_norm(2.0, self.f_apply)
        d = abs(rep["sobolev_norm"] - want) / want
        return None if d <= MATCH_TOL else f"norm {rep['sobolev_norm']} vs {want}"

    def _check_verify(self, rep):
        return None if rep["all_passed"] is True else "a verification suite failed"

    def input_hash(self):
        h = hashlib.sha256()
        for name in sorted({f for fs in self.inputs.values() for f in fs} - {"out_ft.csv"}):
            with open(os.path.join(self.workdir, name), "rb") as fh:
                h.update(name.encode() + fh.read())
        return h.hexdigest()[:16]

    def describe(self):
        wa, ws = self.f_apply.window, self.f_solve.window
        return {"apply": _dims(wa, lo.default_grid(wa)),
                "solve": _dims(ws, lo.default_grid(ws)),
                "index_windows": list(self.sizes["cli_index"]),
                "parametrix_N": self.sizes["cli_N"],
                "commands": [c for c, _ in self.pool]}


WORKLOADS = {cls.name: cls for cls in (SolveN2, IndexN1, ApplyN2, CliScript)}
