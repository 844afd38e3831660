"""Command-line front end.

One binary, subcommands for transforms, solves, spectra, index runs and
the self-verification suites.  Primary report goes to stdout as JSON;
errors go to stderr as JSON with a stable exit-code contract:
0 ok, 1 verification failure, 2 usage/parse error, 3 numeric precondition.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .core import (
    LatticeSequence,
    LatticeWindow,
    TorusFunction,
    TorusGrid,
    _check_resolution,
    default_grid,
    forward_dft,
    inverse_dft,
    read_sequence_csv,
    write_sequence_csv,
)
from .elliptic import parametrix, residual_decay_report, solve
from .errors import (
    AliasingError,
    ConvergenceError,
    DimensionMismatchError,
    EllipticityError,
    LatticeOpsError,
    OutOfWindowError,
    SymbolSyntaxError,
)
from .fredholm import fredholm_ellipticity_probe, full_index_report
from .quantization import adjoint_symbol, apply as q_apply, compose
from .sobolev import inclusion_spectrum, smoothing_spectrum, sobolev_norm
from .symbols import (
    check_ellipticity,
    estimate_order,
    read_symbol_json,
    symbol_to_dict,
    write_symbol_json,
)
from .verify import SUITES, run_suites

USAGE_ERROR = 2
PRECONDITION_ERROR = 3


# -- torus-sample CSV (x1..xn,re,im), the transform-side twin of the
#    sequence format -----------------------------------------------------

def write_torus_csv(path, F: TorusFunction) -> None:
    n = F.grid.n
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{j + 1}" for j in range(n)] + ["re", "im"])
        for x, v in zip(F.grid.nodes, F.values):
            w.writerow([repr(float(c)) for c in x]
                       + [repr(float(v.real)), repr(float(v.imag))])


def read_torus_csv(path) -> TorusFunction:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty torus CSV {path}")
    header = rows[0]
    n = len(header) - 2
    if n < 1 or header[-2:] != ["re", "im"]:
        raise ValueError(f"bad torus CSV header {header!r}")
    data = rows[1:]
    M = round(len(data) ** (1.0 / n))
    if M ** n != len(data):
        raise ValueError(f"torus CSV has {len(data)} rows, not a full M^n grid")
    grid = TorusGrid(n, M)
    values = np.zeros(grid.size, dtype=complex)
    spacing = 1.0 / M
    for row in data:
        x = [float(c) for c in row[:n]]
        idx = 0
        for c in x:
            j = round(c / spacing)
            if abs(c - j * spacing) > 1e-9 or not (0 <= j < M):
                raise ValueError(f"node {x} is not on the uniform {M}-point grid")
            idx = idx * M + j
        values[idx] = float(row[n]) + 1j * float(row[n + 1])
    return TorusFunction(grid, values)


# -- config plumbing -----------------------------------------------------

def _resolve_config(args, window: LatticeWindow):
    """Report config and the torus grid for ``window``; refuses aliasing grids."""
    grid = default_grid(window) if args.M is None else TorusGrid(window.n, args.M)
    _check_resolution(window, grid)
    config = {"command": args.command, "n": window.n, "N": window.N, "M": grid.M,
              "seed": args.seed, "out": args.out, "version": __version__}
    return config, grid


def _jsonify(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(report: dict, args) -> None:
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
        report["elapsed_seconds"] = round(time.perf_counter() - args._t0, 6)
    indent = None if args.json else 2
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=indent,
                                default=_jsonify) + "\n")


def _load_symbol(path, args):
    sigma = read_symbol_json(path)
    if args.n is not None and sigma.n is not None and sigma.n != args.n:
        raise DimensionMismatchError(
            f"symbol dimension {sigma.n} disagrees with --n {args.n}")
    return sigma


def _norms(f: LatticeSequence) -> dict:
    return {"l2": f.norm(), "max": float(np.max(np.abs(f.values)))}


# -- subcommands ----------------------------------------------------------

def cmd_apply(args):
    sigma = _load_symbol(args.symbol, args)
    f = read_sequence_csv(args.sequence)
    if f.window.n != sigma.n:
        raise DimensionMismatchError(
            f"sequence dimension {f.window.n} vs symbol dimension {sigma.n}")
    config, grid = _resolve_config(args, f.window)
    out = q_apply(sigma, f, grid)
    report = {"config": config, "symbol": symbol_to_dict(sigma),
              "input_norms": _norms(f), "output_norms": _norms(out)}
    if args.out:
        write_sequence_csv(args.out, out)
        report["output_file"] = args.out
    _emit(report, args)
    return 0


def cmd_ft(args):
    f = read_sequence_csv(args.sequence)
    config, grid = _resolve_config(args, f.window)
    F = forward_dft(f, grid)
    report = {"config": config, "input_norms": _norms(f),
              "output_max": float(np.max(np.abs(F.values)))}
    if args.out:
        write_torus_csv(args.out, F)
        report["output_file"] = args.out
    _emit(report, args)
    return 0


def cmd_invft(args):
    F = read_torus_csv(args.torus)
    N = args.N if args.N is not None else (F.grid.M - 3) // 2
    window = LatticeWindow(F.grid.n, N)
    args.M = F.grid.M
    config, _ = _resolve_config(args, window)
    f = inverse_dft(F, window)
    report = {"config": config, "output_norms": _norms(f)}
    if args.out:
        write_sequence_csv(args.out, f)
        report["output_file"] = args.out
    _emit(report, args)
    return 0


def cmd_compose(args):
    sigma = _load_symbol(args.symbol, args)
    tau = _load_symbol(args.symbol2, args)
    if sigma.n != tau.n:
        raise DimensionMismatchError("symbol dimensions disagree")
    N = args.N if args.N is not None else 16
    window = LatticeWindow(sigma.n, N)
    config, grid = _resolve_config(args, window)
    comp = compose(sigma, tau, window, grid)
    report = {"config": config, "order": comp.order,
              "interior_margin": comp.interior_margin}
    if args.out:
        write_symbol_json(args.out, comp)
        report["output_file"] = args.out
    _emit(report, args)
    return 0


def cmd_adjoint(args):
    sigma = _load_symbol(args.symbol, args)
    N = args.N if args.N is not None else 16
    window = LatticeWindow(sigma.n, N)
    config, grid = _resolve_config(args, window)
    adj = adjoint_symbol(sigma, window, grid)
    report = {"config": config, "order": adj.order}
    if args.out:
        write_symbol_json(args.out, adj)
        report["output_file"] = args.out
    _emit(report, args)
    return 0


def cmd_norm(args):
    f = read_sequence_csv(args.sequence)
    config, _ = _resolve_config(args, f.window)
    report = {"config": config, "s": args.s,
              "sobolev_norm": sobolev_norm(args.s, f), "l2_norm": f.norm()}
    _emit(report, args)
    return 0


def cmd_classify(args):
    sigma = _load_symbol(args.symbol, args)
    N = args.N if args.N is not None else 32
    window = LatticeWindow(sigma.n, N)
    config, grid = _resolve_config(args, window)
    est = estimate_order(sigma, window, grid,
                         alpha_max=args.alpha_max, beta_max=args.beta_max)
    m = args.m if args.m is not None else (
        sigma.order if sigma.order is not None else est.m_hat)
    rep = check_ellipticity(sigma, m, window, grid)
    report = {
        "config": config,
        "declared_order": sigma.order,
        "estimated_order": est.m_hat,
        "slope_table": [{"alpha": list(e.alpha), "beta": list(e.beta),
                         "slope": e.slope, "degenerate": e.degenerate}
                        for e in est.table],
        "ellipticity_order": m,
        "ellipticity": rep.to_dict(),
    }
    _emit(report, args)
    return 0


def cmd_parametrix(args):
    sigma = _load_symbol(args.symbol, args)
    N = args.N if args.N is not None else 32
    window = LatticeWindow(sigma.n, N)
    config, grid = _resolve_config(args, window)
    m = args.m if args.m is not None else (sigma.order or 0.0)
    par = parametrix(sigma, m, args.steps, window, grid)
    decay = residual_decay_report(par.left_residual, args.power)
    report = {
        "config": config,
        "order": m,
        "steps": par.steps,
        "threshold": par.threshold,
        "regularized_points": par.regularized_points,
        "max_left_residual": float(np.max(np.abs(par.left_residual.values))),
        "max_right_residual": float(np.max(np.abs(par.right_residual.values))),
        "decay": {"powers": decay.powers, "shells": decay.shells,
                  "shell_sups": {str(p): decay.shell_sups[p] for p in decay.powers},
                  "schwartz_like": decay.schwartz_like},
    }
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["shell", "power", "weighted_sup"])
            for p in decay.powers:
                for j, s in zip(decay.shells, decay.shell_sups[p]):
                    w.writerow([j, p, repr(s)])
        report["output_file"] = args.out
    _emit(report, args)
    return 0


def cmd_solve(args):
    sigma = _load_symbol(args.symbol, args)
    f = read_sequence_csv(args.sequence)
    if f.window.n != sigma.n:
        raise DimensionMismatchError(
            f"sequence dimension {f.window.n} vs symbol dimension {sigma.n}")
    config, grid = _resolve_config(args, f.window)
    m = args.m if args.m is not None else (sigma.order or 0.0)
    result = solve(sigma, m, f, f.window, grid, tol=args.tol, J=args.steps)
    report = {"config": config, "order": m, "tol": args.tol}
    report.update(result.report_dict())
    if args.out:
        write_sequence_csv(args.out, result.solution)
        report["output_file"] = args.out
    _emit(report, args)
    return 0


def cmd_spectrum(args):
    windows = _parse_windows(args.windows, default=[16, 32, 64])
    n = args.n if args.n is not None else 1
    if args.kind == "inclusion":
        rep = inclusion_spectrum(args.s, args.t, windows, n=n)
    else:
        rep = smoothing_spectrum(args.eps, windows, n=n)
    args.N = max(windows)
    config, _ = _resolve_config(args, LatticeWindow(n, max(windows)))
    report = {"config": config, "kind": args.kind}
    report.update(rep.to_dict())
    if args.kind == "smoothing":
        report["count_below_0.1"] = rep.count_below(0.1)
        report["fraction_below_0.1"] = rep.fraction_below(0.1)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["window", "j", "singular_value"])
            for N, sv in zip(rep.windows, rep.singular_values):
                for j, s in enumerate(sv, start=1):
                    w.writerow([N, j, repr(float(s))])
        report["output_file"] = args.out
    _emit(report, args)
    return 0


def cmd_index(args):
    sigma = _load_symbol(args.symbol, args)
    windows = _parse_windows(args.windows, default=[16, 24, 32])
    window = LatticeWindow(sigma.n, max(windows))
    args.N = window.N
    config, grid = _resolve_config(args, window)
    cert = check_ellipticity(sigma, 0.0, window, grid)
    if not cert.elliptic:
        probe = fredholm_ellipticity_probe(sigma, windows, n=sigma.n)
        report = {"config": config, "elliptic": False,
                  "probe": probe.to_dict(),
                  "windows": windows, "dim_ker": None, "dim_coker": None,
                  "svd_index": None, "trace_index_raw": None,
                  "trace_index": None, "agreement": None}
        _emit(report, args)
        return 0
    rep = full_index_report(sigma, windows, n=sigma.n, J=args.steps)
    report = {"config": config, "elliptic": True}
    report.update(rep.to_dict())
    _emit(report, args)
    return 0


def cmd_verify(args):
    names = args.suite if args.suite else ["all"]
    try:
        results = run_suites(names, seed=args.seed)
    except KeyError as e:
        raise UnknownSuiteError(
            f"unknown suite {e.args[0]!r}; choose from {', '.join(SUITES)} or 'all'")
    args.N = args.N if args.N is not None else 16
    config, _ = _resolve_config(args, LatticeWindow(args.n or 1, args.N))
    report = {"config": config}
    report.update(results)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, sort_keys=True, default=_jsonify)
        report["output_file"] = args.out
    _emit(report, args)
    return 0 if results["all_passed"] else 1


class UnknownSuiteError(ValueError):
    pass


def _parse_windows(text, default):
    if not text:
        return default
    try:
        windows = sorted({int(t) for t in text.split(",") if t.strip()})
    except ValueError:
        raise UnknownSuiteError(f"bad window list {text!r}; expected e.g. 16,32,64")
    if not windows or any(N < 1 for N in windows):
        raise UnknownSuiteError(f"bad window list {text!r}")
    return windows


# -- argument parsing ------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _error_json("UsageError", message)
        raise SystemExit(USAGE_ERROR)


def _common(sub):
    sub.add_argument("--n", type=int, default=None, help="lattice dimension")
    sub.add_argument("--N", type=int, default=None, help="window half-width")
    sub.add_argument("--M", type=int, default=None,
                     help="torus grid points per axis (default 2N+3)")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--out", default=None, help="output data file")
    sub.add_argument("--json", action="store_true",
                     help="compact single-line JSON on stdout")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit timestamp/timing for byte-identical reports")


def build_parser() -> _Parser:
    p = _Parser(prog="latticeops",
                description="pseudo-difference operator toolkit on Z^n x T^n")
    sp = p.add_subparsers(dest="command", required=True)

    s = sp.add_parser("apply", help="apply T_sigma to a sequence")
    s.add_argument("symbol"); s.add_argument("sequence"); _common(s)
    s.set_defaults(func=cmd_apply)

    s = sp.add_parser("ft", help="discrete Fourier transform of a sequence")
    s.add_argument("sequence"); _common(s)
    s.set_defaults(func=cmd_ft)

    s = sp.add_parser("invft", help="inverse transform of torus samples")
    s.add_argument("torus"); _common(s)
    s.set_defaults(func=cmd_invft)

    s = sp.add_parser("compose", help="compose two symbols on a window")
    s.add_argument("symbol"); s.add_argument("symbol2"); _common(s)
    s.set_defaults(func=cmd_compose)

    s = sp.add_parser("adjoint", help="adjoint symbol on a window")
    s.add_argument("symbol"); _common(s)
    s.set_defaults(func=cmd_adjoint)

    s = sp.add_parser("norm", help="Sobolev norm of a sequence")
    s.add_argument("sequence"); s.add_argument("--s", type=float, default=0.0)
    _common(s); s.set_defaults(func=cmd_norm)

    s = sp.add_parser("classify", help="order estimate + ellipticity certificate")
    s.add_argument("symbol"); s.add_argument("--m", type=float, default=None)
    s.add_argument("--alpha-max", type=int, default=1)
    s.add_argument("--beta-max", type=int, default=1)
    _common(s); s.set_defaults(func=cmd_classify)

    s = sp.add_parser("parametrix", help="build a parametrix, report residuals")
    s.add_argument("symbol"); s.add_argument("--m", type=float, default=None)
    s.add_argument("--steps", "-J", type=int, default=2)
    s.add_argument("--power", type=int, default=3,
                   help="max weight power in the decay report")
    _common(s); s.set_defaults(func=cmd_parametrix)

    s = sp.add_parser("solve", help="solve T_sigma u = f")
    s.add_argument("symbol"); s.add_argument("sequence")
    s.add_argument("--m", type=float, default=None)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--steps", "-J", type=int, default=2)
    _common(s); s.set_defaults(func=cmd_solve)

    s = sp.add_parser("spectrum", help="inclusion/smoothing singular values")
    s.add_argument("--kind", choices=["inclusion", "smoothing"], required=True)
    s.add_argument("--s", type=float, default=0.0)
    s.add_argument("--t", type=float, default=1.0)
    s.add_argument("--eps", type=float, default=1.0)
    s.add_argument("--windows", default=None, help="comma-separated N list")
    _common(s); s.set_defaults(func=cmd_spectrum)

    s = sp.add_parser("index", help="Fredholm index, two independent routes")
    s.add_argument("symbol")
    s.add_argument("--windows", default=None, help="comma-separated N list")
    s.add_argument("--steps", "-J", type=int, default=3)
    _common(s); s.set_defaults(func=cmd_index)

    s = sp.add_parser("verify", help="run the property-verification suites")
    s.add_argument("--suite", action="append", default=None,
                   help=f"one of {', '.join(SUITES)} or 'all' (repeatable)")
    _common(s); s.set_defaults(func=cmd_verify)
    return p


def _error_json(kind, message, **extra):
    payload = {"error": kind, "message": str(message)}
    payload.update(extra)
    sys.stderr.write(json.dumps(payload, sort_keys=True, default=_jsonify) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else USAGE_ERROR
    args._t0 = time.perf_counter()
    try:
        return args.func(args)
    except SymbolSyntaxError as e:
        _error_json("SymbolSyntaxError", e, position=e.position)
        return USAGE_ERROR
    except (json.JSONDecodeError, UnknownSuiteError, FileNotFoundError, KeyError) as e:
        _error_json(type(e).__name__, e)
        return USAGE_ERROR
    except EllipticityError as e:
        _error_json("EllipticityError", e, report=e.report.to_dict() if e.report else None)
        return PRECONDITION_ERROR
    except ConvergenceError as e:
        _error_json("ConvergenceError", e,
                    residual_history=[float(r) for r in e.residual_history])
        return PRECONDITION_ERROR
    except (AliasingError, DimensionMismatchError, OutOfWindowError) as e:
        _error_json(type(e).__name__, e)
        return PRECONDITION_ERROR
    except (LatticeOpsError, ValueError) as e:
        _error_json(type(e).__name__, e)
        return PRECONDITION_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
