"""Span tracer that wraps latticeops functions from outside the package.

Each target (every public function of a layer module, ``core._dft_matrix``
and the ``sample``/``sample_shifted`` methods of ``Symbol`` and its
subclasses) is replaced at every binding that holds it: the defining
module, the package namespace and each ``from .x import f`` alias in a
sibling module.  A span is recorded only while ``tracer.job`` is set, so
warm-up and oracle work stay out of the numbers.  Spans stay in memory
until ``write``.  A target that the package no longer has is listed in
``absent`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

LAYERS = ("core", "symbols", "quantization", "sobolev", "elliptic",
          "fredholm", "cli", "verify")

SAMPLE_METHODS = ("sample", "sample_shifted")

# Targets the per-layer metrics read; absent ones are reported, not fatal.
EXPECTED = (
    "core.forward_dft", "core.inverse_dft", "core._dft_matrix",
    "symbols.Symbol.sample", "symbols.Symbol.sample_shifted",
    "symbols.check_ellipticity",
    "quantization.apply", "quantization.assemble_matrix",
    "quantization.extract_symbol",
    "elliptic.parametrix", "elliptic.solve",
    "fredholm.svd_index", "fredholm.trace_index",
    "fredholm.fredholm_ellipticity_probe", "fredholm.full_index_report",
    "sobolev.sobolev_norm", "verify.run_suites", "cli.main",
)


def _sizes(window, grid):
    return {"P": int(window.size), "Q": int(grid.size)}


# qualified name -> fn(bound arguments, result) -> info dict kept on the span
INFO = {
    "core._dft_matrix": lambda a, r: {"key": [int(a["n"]), int(a["N"]), int(a["M"])]},
    "quantization.assemble_matrix": lambda a, r: _sizes(a["window"], a["grid"]),
    "elliptic.parametrix": lambda a, r: {"P": int(a["window"].size), "J": int(a["J"])},
    "elliptic.solve": lambda a, r: {"iterations": int(r.iterations),
                                    "fallback": bool(r.fallback_used)},
    "fredholm.svd_index": lambda a, r: {
        "Ps": [(2 * int(N) + 1) ** int(a["n"]) for N in a["windows"]]},
    "fredholm.full_index_report": lambda a, r: {
        "verdicts": r.svd_index is not None and r.trace_index is not None},
}
for _m in SAMPLE_METHODS:
    INFO[_m] = lambda a, r: _sizes(a["window"], a["grid"])


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, job, info]
        self.job = None
        self.originals = {}    # qualified name -> unwrapped callable
        self.absent = []
        self._stack = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target at every binding in the loaded latticeops modules."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"latticeops.{layer}")
            except ImportError:
                self.absent.append(layer)
        targets = []
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    targets.append((f"{layer}.{name}", obj, None, f"{layer}.{name}"))
        if "core" in modules and hasattr(modules["core"], "_dft_matrix"):
            targets.append(("core._dft_matrix", modules["core"]._dft_matrix, None,
                            "core._dft_matrix"))
        if "symbols" in modules and hasattr(modules["symbols"], "Symbol"):
            base = modules["symbols"].Symbol
            for cls in [base, *_subclasses(base)]:
                for meth in SAMPLE_METHODS:
                    if meth in vars(cls):
                        targets.append((f"symbols.{cls.__name__}.{meth}",
                                        vars(cls)[meth], cls, meth))
        for qual, fn, cls, key in targets:
            traced = self._wrap(qual, fn, INFO.get(key))
            self.originals[qual] = fn
            if cls is not None:
                setattr(cls, key, traced)
            else:
                _rebind(fn, traced)
        self.absent += [q for q in EXPECTED if q not in self.originals
                        and q.split(".")[0] not in self.absent]
        return self

    def _wrap(self, qual, fn, hook):
        tracer = self
        sig = _signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [qual, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                span[5] = _info(hook, sig, args, kwargs, result)
            return result

        return traced

    # -- output --------------------------------------------------------------

    def dft_cache_info(self):
        return _cache_counts(self.originals.get("core._dft_matrix"))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent,
                       "dft_cache": self.dft_cache_info()}, fh)


def dft_cache_counts(core):
    """Hits and misses of ``core._dft_matrix``'s cache so far, or None.
    Call before ``install``; afterwards use ``Tracer.dft_cache_info``."""
    return _cache_counts(getattr(core, "_dft_matrix", None))


def _cache_counts(fn):
    if not hasattr(fn, "cache_info"):
        return None
    info = fn.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_subclasses(sub)]
    return out


def _rebind(original, traced):
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "latticeops" or name.startswith("latticeops.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, traced)


def _signature(fn):
    try:
        return inspect.signature(fn)
    except (TypeError, ValueError):
        return None


def _info(hook, sig, args, kwargs, result):
    try:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return hook(bound.arguments, result)
    except Exception as exc:  # a changed signature must not break the run
        return {"error": repr(exc)}


# -- per-layer metrics from spans ------------------------------------------

def _family(name):
    """Spans that count as one operation for inclusive metrics."""
    if name.startswith("symbols.") and name.rsplit(".", 1)[-1] in SAMPLE_METHODS:
        return "symbols.sample"
    return name


def summarize(spans, jobs):
    """Per-job means of the per-layer metrics over ``jobs`` traced jobs.

    ``spans`` may be the concatenation of several processes' span lists as
    long as parent indices were offset accordingly.
    """
    n = max(jobs, 1)
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    incl, selft, calls, info = {}, {}, {}, {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        fam = _family(name)
        self_time = dur - child[i]
        selft[fam] = selft.get(fam, 0.0) + self_time
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += self_time
        if _has_ancestor(spans, i, fam):
            continue  # sample -> sample_shifted is one operation
        incl[fam] = incl.get(fam, 0.0) + dur
        calls[fam] = calls.get(fam, 0) + 1
        if s[5] is not None:
            info.setdefault(fam, []).append(s[5])

    def infos(fam, key):
        return [d[key] for d in info.get(fam, []) if key in d]

    P_Q = [(d["P"], d["Q"]) for d in info.get("quantization.assemble_matrix", []) if "P" in d]
    sample = [(d["P"], d["Q"]) for d in info.get("symbols.sample", []) if "P" in d]
    par = [(d["P"], d["J"]) for d in info.get("elliptic.parametrix", []) if "P" in d]
    svd_P = [P for Ps in infos("fredholm.svd_index", "Ps") for P in Ps]
    iters = infos("elliptic.solve", "iterations")
    fallback = infos("elliptic.solve", "fallback")
    verdicts = infos("fredholm.full_index_report", "verdicts")
    out = {
        "core.forward_dft.s": incl.get("core.forward_dft", 0.0) / n,
        "core.inverse_dft.s": incl.get("core.inverse_dft", 0.0) / n,
        "symbols.sample.calls": calls.get("symbols.sample", 0) / n,
        "symbols.sample.s": incl.get("symbols.sample", 0.0) / n,
        "symbols.sample.bytes": 16.0 * sum(P * Q for P, Q in sample) / n,
        "symbols.check_ellipticity.s": incl.get("symbols.check_ellipticity", 0.0) / n,
        "quantization.apply.self_s": selft.get("quantization.apply", 0.0) / n,
        "quantization.assemble_matrix.calls_per_job":
            calls.get("quantization.assemble_matrix", 0) / n,
        "quantization.assemble_matrix.self_s":
            selft.get("quantization.assemble_matrix", 0.0) / n,
        "quantization.assemble_matrix.flops": 8.0 * sum(P * P * Q for P, Q in P_Q) / n,
        "quantization.extract_symbol.calls_per_job":
            calls.get("quantization.extract_symbol", 0) / n,
        "quantization.extract_symbol.self_s":
            selft.get("quantization.extract_symbol", 0.0) / n,
        "elliptic.parametrix.self_s": selft.get("elliptic.parametrix", 0.0) / n,
        # 2(J-1) Neumann products and 2 residual products, 8 flops per complex MAC
        "elliptic.parametrix.flops": 8.0 * sum(2 * J * P ** 3 for P, J in par) / n,
        "elliptic.solve.self_s": selft.get("elliptic.solve", 0.0) / n,
        "elliptic.solve.iterations": float(statistics.median(iters)) if iters else 0.0,
        "elliptic.solve.fallback_frac": (sum(fallback) / len(fallback)) if fallback else 0.0,
        "fredholm.svd_index.self_s": selft.get("fredholm.svd_index", 0.0) / n,
        # one complex P x P product's worth (8 P^3) per window's SVD
        "fredholm.svd_index.flops": 8.0 * sum(P ** 3 for P in svd_P) / n,
        "fredholm.trace_index.self_s": selft.get("fredholm.trace_index", 0.0) / n,
        "fredholm.probe.s": incl.get("fredholm.fredholm_ellipticity_probe", 0.0) / n,
        "fredholm.verdict_frac": (sum(verdicts) / len(verdicts)) if verdicts else 0.0,
        "sobolev.sobolev_norm.s": incl.get("sobolev.sobolev_norm", 0.0) / n,
        "verify.run_suites.s": incl.get("verify.run_suites", 0.0) / n,
    }
    for layer, t in layer_self.items():
        out[f"layer.{layer}.self_s"] = t / n
    return out


def _has_ancestor(spans, i, fam):
    p = spans[i][3]
    while p >= 0:
        if _family(spans[p][0]) == fam:
            return True
        p = spans[p][3]
    return False


def dft_cache_metrics(processes):
    """Means per traced process of the ``_dft_matrix`` cache counters.

    ``processes`` holds one (cache_info dict or None, spans) pair per
    process.  Misses and hits come from ``cache_info``: set-up and the
    traced jobs, as the caller counted them.  Bytes are Q*P*16 per distinct
    key the process's spans asked for.
    """
    seen = [(c, _dft_keys(spans)) for c, spans in processes if c is not None]
    if not seen:
        return {"core.dft_cache.misses": 0.0, "core.dft_cache.hit_ratio": 0.0,
                "core.dft_cache.bytes": 0.0}
    hits = sum(c["hits"] for c, _ in seen)
    misses = sum(c["misses"] for c, _ in seen)
    nbytes = sum(16 * (M ** n) * ((2 * N + 1) ** n) for _, keys in seen for n, N, M in keys)
    return {"core.dft_cache.misses": misses / len(seen),
            "core.dft_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "core.dft_cache.bytes": nbytes / len(seen)}


def _dft_keys(spans):
    return {tuple(s[5]["key"]) for s in spans
            if s[0] == "core._dft_matrix" and s[5] and "key" in s[5]}
