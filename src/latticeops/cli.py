"""Command-line front end.

One binary, subcommands for transforms, solves, spectra, index runs and
the self-verification suites.  Primary report goes to stdout as JSON;
errors go to stderr as JSON with a stable exit-code contract:
0 ok, 1 verification failure, 2 usage/parse error, 3 numeric precondition.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    LatticeSequence,
    LatticeWindow,
    TorusGrid,
    _check_resolution,
    _write_table,
    default_grid,
    index_grid,
    forward_dft,
    inverse_dft,
    read_sequence_csv,
    read_torus_csv,
    write_sequence_csv,
    write_torus_csv,
)
from .elliptic import _decay_report, parametrix, solve
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    EllipticityError,
    LatticeOpsError,
    OutOfWindowError,
    ParseError,
    SymbolSyntaxError,
)
from .fredholm import IndexReport, fredholm_ellipticity_probe, full_index_report
from .quantization import adjoint_symbol, apply as q_apply, compose
from .sobolev import inclusion_spectrum, smoothing_spectrum, sobolev_norm
from .symbols import (
    GridSymbol,
    check_ellipticity,
    estimate_order,
    read_symbol_json,
    symbol_to_dict,
    write_symbol_json,
)
from .verify import SUITES, run_suites

USAGE_ERROR = 2
PRECONDITION_ERROR = 3


# -- config plumbing -----------------------------------------------------

class UsageError(ValueError):
    """Options that cannot start a run."""


class UnknownSuiteError(UsageError):
    pass


def _grid(args, window: LatticeWindow) -> TorusGrid:
    """The torus grid of --M (default 2N+3); refuses one that aliases ``window``."""
    grid = default_grid(window) if args.M is None else TorusGrid(window.n, args.M)
    _check_resolution(window, grid)
    return grid


def _dimension(symbols, n, source: str) -> int:
    """The one dimension of ``symbols`` and ``n`` (from ``source``); None means unknown."""
    for sigma in (s for s in symbols if s.n is not None):
        if n is not None and sigma.n != n:
            raise DimensionMismatchError(
                f"symbol dimension {sigma.n} disagrees with {source} dimension {n}")
        n, source = sigma.n, "symbol"
    if n is None:
        raise UsageError('the symbol file has "n": null; give the dimension with --n')
    return n


def _window(symbols, n: int, N: int, option: str) -> LatticeWindow:
    """The window of half-width N, given by ``option``; refuses one that leaves
    the backing window of a grid symbol among ``symbols`` before any work."""
    for sigma in symbols:
        if isinstance(sigma, GridSymbol) and N > sigma.window.N:
            raise OutOfWindowError(
                f"{option} {N} leaves the backing window N={sigma.window.N} of the grid "
                f"symbol; give {option} {sigma.window.N} or less")
    return LatticeWindow(n, N)


def _config(args, window: LatticeWindow = None, grid: TorusGrid = None) -> dict:
    """Command, version, the run's window and grid, the aliasing margin
    M - (2N+1) when both are given, and --out/--seed where taken."""
    config = {"command": args.command, "version": __version__}
    if window is not None:
        config.update(n=window.n, N=window.N)
    if grid is not None:
        config["M"] = grid.M
    if window is not None and grid is not None:
        config["aliasing_margin"] = grid.M - window.side
    config.update({k: getattr(args, k) for k in ("out", "seed") if hasattr(args, k)})
    return config


def _plain(obj):
    """``obj`` with numpy values made Python ones and non-finite floats spelled
    "Infinity", "-Infinity" or "NaN", so that its JSON is strict."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return json.dumps(obj)
    return obj


def _dumps(obj, **kwargs) -> str:
    return json.dumps(_plain(obj), sort_keys=True, allow_nan=False, **kwargs)


def _finish(args, report: dict, write=None) -> int:
    """Write --out with ``write(path)`` if asked, then the report; exit code 0."""
    if write is not None and args.out:
        write(args.out)
        report["output_file"] = args.out
    if not args.no_timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
        report["elapsed_seconds"] = round(time.perf_counter() - args._t0, 6)
    sys.stdout.write(_dumps(report, indent=None if args.json else 2) + "\n")
    return 0


def _norms(f: LatticeSequence) -> dict:
    return {"l2": f.norm(), "max": float(np.max(np.abs(f.values)))}


# -- subcommands ----------------------------------------------------------

def cmd_apply(args):
    sigma = read_symbol_json(args.symbol)
    f = read_sequence_csv(args.sequence)
    _dimension([sigma], f.window.n, "sequence")
    grid = _grid(args, f.window)
    out = q_apply(sigma, f, grid)
    report = {"config": _config(args, f.window, grid), "symbol": symbol_to_dict(sigma),
              "input_norms": _norms(f), "output_norms": _norms(out)}
    return _finish(args, report, lambda path: write_sequence_csv(path, out))


def cmd_ft(args):
    f = read_sequence_csv(args.sequence)
    grid = _grid(args, f.window)
    F = forward_dft(f, grid)
    report = {"config": _config(args, f.window, grid), "input_norms": _norms(f),
              "output_max": float(np.max(np.abs(F.values)))}
    return _finish(args, report, lambda path: write_torus_csv(path, F))


def cmd_invft(args):
    F = read_torus_csv(args.torus)
    N = args.N if args.N is not None else max(1, (F.grid.M - 3) // 2)
    window = LatticeWindow(F.grid.n, N)
    f = inverse_dft(F, window)
    report = {"config": _config(args, window, F.grid), "output_norms": _norms(f)}
    return _finish(args, report, lambda path: write_sequence_csv(path, f))


def cmd_compose(args):
    sigma = read_symbol_json(args.symbol)
    tau = read_symbol_json(args.symbol2)
    window = _window([sigma, tau], _dimension([sigma, tau], args.n, "--n"), args.N, "--N")
    grid = _grid(args, window)
    comp = compose(sigma, tau, window, grid)
    report = {"config": _config(args, window, grid), "order": comp.order,
              "interior_margin": comp.interior_margin}
    return _finish(args, report, lambda path: write_symbol_json(path, comp))


def cmd_adjoint(args):
    sigma = read_symbol_json(args.symbol)
    window = _window([sigma], _dimension([sigma], args.n, "--n"), args.N, "--N")
    grid = _grid(args, window)
    adj = adjoint_symbol(sigma, window, grid)
    report = {"config": _config(args, window, grid), "order": adj.order}
    return _finish(args, report, lambda path: write_symbol_json(path, adj))


def cmd_norm(args):
    f = read_sequence_csv(args.sequence)
    report = {"config": _config(args, f.window), "s": args.s,
              "sobolev_norm": sobolev_norm(args.s, f), "l2_norm": f.norm()}
    return _finish(args, report)


def cmd_classify(args):
    sigma = read_symbol_json(args.symbol)
    window = _window([sigma], _dimension([sigma], args.n, "--n"), args.N, "--N")
    grid = _grid(args, window)
    est = estimate_order(sigma, window, grid,
                         alpha_max=args.alpha_max, beta_max=args.beta_max)
    m = args.m if args.m is not None else (
        sigma.order if sigma.order is not None else est.m_hat)
    rep = check_ellipticity(sigma, m, window, grid)
    report = {
        "config": _config(args, window, grid),
        "declared_order": sigma.order,
        "estimated_order": est.m_hat,
        "slope_table": [{"alpha": list(e.alpha), "beta": list(e.beta),
                         "slope": e.slope, "degenerate": e.degenerate}
                        for e in est.table],
        "ellipticity_order": m,
        "ellipticity": rep.to_dict(),
    }
    return _finish(args, report)


def cmd_parametrix(args):
    sigma = read_symbol_json(args.symbol)
    window = _window([sigma], _dimension([sigma], args.n, "--n"), args.N, "--N")
    grid = _grid(args, window)
    m = args.m if args.m is not None else (sigma.order or 0.0)
    par = parametrix(sigma, m, args.steps, window, grid)
    left = par.left_defect.symbol_row_maxima()
    decay = _decay_report(left, window, args.power)
    report = {
        "config": _config(args, window, grid),
        "order": m,
        "steps": par.steps,
        "max_left_residual": float(np.max(left)),
        "max_right_residual": float(np.max(par.right_defect.symbol_row_maxima())),
        "sections": par.form_report(),
        "decay": {"powers": decay.powers, "shells": decay.shells,
                  "shell_sups": {str(p): decay.shell_sups[p] for p in decay.powers},
                  "schwartz_like": decay.schwartz_like},
    }
    rows = ([j, p, repr(s)] for p in decay.powers
            for j, s in zip(decay.shells, decay.shell_sups[p]))
    return _finish(args, report, lambda path: _write_table(
        path, ["shell", "power", "weighted_sup"], rows))


def cmd_solve(args):
    sigma = read_symbol_json(args.symbol)
    f = read_sequence_csv(args.sequence)
    _dimension([sigma], f.window.n, "sequence")
    grid = _grid(args, f.window)
    m = args.m if args.m is not None else (sigma.order or 0.0)
    result = solve(sigma, m, f, f.window, grid, tol=args.tol, J=args.steps)
    report = {"config": _config(args, f.window, grid), "order": m, "tol": args.tol}
    report.update(result.report_dict())
    return _finish(args, report, lambda path: write_sequence_csv(path, result.solution))


def cmd_spectrum(args):
    if args.kind == "inclusion":
        rep = inclusion_spectrum(args.s, args.t, args.windows, n=args.n)
    else:
        rep = smoothing_spectrum(args.eps, args.windows, n=args.n)
    report = {"config": _config(args, LatticeWindow(args.n, max(args.windows))),
              "kind": args.kind}
    report.update(rep.to_dict())
    if args.kind == "smoothing":
        report["count_below_0.1"] = rep.count_below(0.1)
        report["fraction_below_0.1"] = rep.fraction_below(0.1)
    rows = ([N, j, repr(float(s))] for N, sv in zip(rep.windows, rep.singular_values)
            for j, s in enumerate(sv, start=1))
    return _finish(args, report, lambda path: _write_table(
        path, ["window", "j", "singular_value"], rows))


def cmd_index(args):
    sigma = read_symbol_json(args.symbol)
    n = _dimension([sigma], args.n, "--n")
    windows = args.windows
    window = _window([sigma], n, max(windows), "--windows")
    grid = index_grid(window)  # the grid every window of both index routes uses
    config = _config(args, window, grid)
    try:
        # its parametrix certifies sigma at order 0 on this window and grid
        report = {"config": config, "elliptic": True}
        report.update(full_index_report(sigma, windows, n=n, J=args.steps).to_dict())
    except EllipticityError:
        probe = fredholm_ellipticity_probe(sigma, windows, n=n)
        report = {"config": config, "elliptic": False, "probe": probe.to_dict()}
        # the verdict fields of IndexReport, each null
        report.update(IndexReport(windows, None, None, None).to_dict())
    return _finish(args, report)


def cmd_verify(args):
    try:
        results = run_suites(args.suite or ["all"], seed=args.seed)
    except KeyError as e:
        raise UnknownSuiteError(
            f"unknown suite {e.args[0]!r}; choose from {', '.join(SUITES)} or 'all'")
    report = {"config": _config(args)}
    report.update(results)
    _finish(args, report, lambda path: Path(path).write_text(_dumps(report)))
    return 0 if results["all_passed"] else 1


# -- argument parsing ------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        _error_json("UsageError", message)
        raise SystemExit(USAGE_ERROR)


def _positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _nonnegative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _window_list(text):
    """Comma-separated positive half-widths, sorted and deduplicated."""
    windows = sorted({_positive_int(t.strip()) for t in text.split(",") if t.strip()})
    if not windows:
        raise argparse.ArgumentTypeError(f"empty window list {text!r}")
    return windows


_SHARED = {
    "n": dict(type=_positive_int, default=None, help="lattice dimension"),
    "N": dict(type=_positive_int, default=None, help="window half-width"),
    "M": dict(type=_positive_int, default=None,
              help="torus grid points per axis (default 2N+3)"),
    "seed": dict(type=int, default=42),
    "out": dict(default=None, help="output data file"),
}


def _options(sub, *shared):
    """Add the ``shared`` options the subcommand reads, --json and --no-timestamp."""
    for name in shared:
        sub.add_argument(f"--{name}", **_SHARED[name])
    sub.add_argument("--json", action="store_true",
                     help="compact single-line JSON on stdout")
    sub.add_argument("--no-timestamp", action="store_true",
                     help="omit timestamp/timing for byte-identical reports")


def build_parser() -> _Parser:
    p = _Parser(prog="latticeops",
                description="pseudo-difference operator toolkit on Z^n x T^n")
    sp = p.add_subparsers(dest="command", required=True)

    s = sp.add_parser("apply", help="apply T_sigma to a sequence")
    s.add_argument("symbol"); s.add_argument("sequence"); _options(s, "M", "out")
    s.set_defaults(func=cmd_apply)

    s = sp.add_parser("ft", help="discrete Fourier transform of a sequence")
    s.add_argument("sequence"); _options(s, "M", "out")
    s.set_defaults(func=cmd_ft)

    s = sp.add_parser("invft", help="inverse transform of torus samples")
    s.add_argument("torus"); _options(s, "N", "out")
    s.set_defaults(func=cmd_invft)

    s = sp.add_parser("compose", help="compose two symbols on a window")
    s.add_argument("symbol"); s.add_argument("symbol2"); _options(s, "n", "N", "M", "out")
    s.set_defaults(func=cmd_compose, N=16)

    s = sp.add_parser("adjoint", help="adjoint symbol on a window")
    s.add_argument("symbol"); _options(s, "n", "N", "M", "out")
    s.set_defaults(func=cmd_adjoint, N=16)

    s = sp.add_parser("norm", help="Sobolev norm of a sequence")
    s.add_argument("sequence"); s.add_argument("--s", type=float, default=0.0)
    _options(s); s.set_defaults(func=cmd_norm)

    s = sp.add_parser("classify", help="order estimate + ellipticity certificate")
    s.add_argument("symbol"); s.add_argument("--m", type=float, default=None)
    s.add_argument("--alpha-max", type=_nonnegative_int, default=1)
    s.add_argument("--beta-max", type=_nonnegative_int, default=1)
    _options(s, "n", "N", "M"); s.set_defaults(func=cmd_classify, N=32)

    s = sp.add_parser("parametrix", help="build a parametrix, report residuals")
    s.add_argument("symbol"); s.add_argument("--m", type=float, default=None)
    s.add_argument("--steps", "-J", type=_positive_int, default=2)
    s.add_argument("--power", type=_nonnegative_int, default=3,
                   help="max weight power in the decay report")
    _options(s, "n", "N", "M", "out"); s.set_defaults(func=cmd_parametrix, N=32)

    s = sp.add_parser("solve", help="solve T_sigma u = f")
    s.add_argument("symbol"); s.add_argument("sequence")
    s.add_argument("--m", type=float, default=None)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--steps", "-J", type=_positive_int, default=2)
    _options(s, "M", "out"); s.set_defaults(func=cmd_solve)

    s = sp.add_parser("spectrum", help="inclusion/smoothing singular values")
    s.add_argument("--kind", choices=["inclusion", "smoothing"], required=True)
    s.add_argument("--s", type=float, default=0.0)
    s.add_argument("--t", type=float, default=1.0)
    s.add_argument("--eps", type=float, default=1.0)
    s.add_argument("--windows", type=_window_list, default=[16, 32, 64],
                   help="comma-separated N list")
    _options(s, "n", "out"); s.set_defaults(func=cmd_spectrum, n=1)

    s = sp.add_parser("index", help="Fredholm index, two independent routes")
    s.add_argument("symbol")
    s.add_argument("--windows", type=_window_list, default=[16, 24, 32],
                   help="comma-separated N list")
    s.add_argument("--steps", "-J", type=_positive_int, default=3)
    _options(s, "n"); s.set_defaults(func=cmd_index)

    s = sp.add_parser("verify", help="run the property-verification suites")
    s.add_argument("--suite", action="append", default=None,
                   help=f"one of {', '.join(SUITES)} or 'all' (repeatable)")
    _options(s, "seed", "out"); s.set_defaults(func=cmd_verify)
    return p


def _error_json(kind, message, **extra):
    payload = {"error": kind, "message": str(message)}
    payload.update(extra)
    sys.stderr.write(_dumps(payload) + "\n")


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
    except (json.JSONDecodeError, UsageError, ParseError, FileNotFoundError, KeyError) as e:
        _error_json(type(e).__name__, e)
        return USAGE_ERROR
    except EllipticityError as e:
        _error_json("EllipticityError", e, report=e.report.to_dict() if e.report else None)
        return PRECONDITION_ERROR
    except ConvergenceError as e:
        _error_json("ConvergenceError", e,
                    residual_history=[float(r) for r in e.residual_history])
        return PRECONDITION_ERROR
    except (LatticeOpsError, ValueError) as e:
        _error_json(type(e).__name__, e)
        return PRECONDITION_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
