"""End-to-end checks of the command-line front end and its exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from latticeops import (
    LatticeSequence,
    LatticeWindow,
    bessel_symbol,
    check_ellipticity,
    default_grid,
    extract_symbol,
    interior_margin,
    parametrix,
    parse_symbol,
    residual_decay_report,
    shipped_path,
    shipped_symbol,
    write_sequence_csv,
    write_symbol_json,
)
from latticeops.cli import main, read_torus_csv, write_torus_csv
from latticeops.shipped import SHIPPED

# the three symbols of the benchmark's solve-n2 pool
EXPR_ORDER0 = "2 + exp(i*twopi*x1)/(1+k1^2+k2^2) + 0.5*cos(twopi*x2)/(1+k1^2)"
EXPR_ORDER2 = "(1+k1^2+k2^2)*(1 + 0.3*cos(twopi*(x1+x2)))"
N2_POOL = {"expr-order0": parse_symbol(EXPR_ORDER0, 2, order=0.0),
           "expr-order2": parse_symbol(EXPR_ORDER2, 2, order=2.0),
           "bessel2": bessel_symbol(2, n=2)}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def seq_csv(tmp_path, name, seq):
    path = tmp_path / name
    write_sequence_csv(path, seq)
    return str(path)


def sym_json(tmp_path, name, text, order=0.0):
    path = tmp_path / name
    write_symbol_json(path, parse_symbol(text, 1, order=order))
    return str(path)


def read_seq(path):
    from latticeops import read_sequence_csv
    return read_sequence_csv(path)


def test_apply_constant_doubles(tmp_path, capsys):
    w = LatticeWindow(1, 5)
    f = LatticeSequence.delta(w, (2,))
    fpath = seq_csv(tmp_path, "f.csv", f)
    out = str(tmp_path / "out.csv")
    rep = report_of(capsys, "apply", str(shipped_path("constant")), fpath,
                    "--out", out, "--no-timestamp")
    g = read_seq(out)
    assert g[(2,)] == pytest.approx(2.0)
    assert rep["output_norms"]["l2"] == pytest.approx(2.0)
    assert rep["config"]["M"] == 13  # default 2N+3
    assert rep["config"]["aliasing_margin"] == 2  # M - (2N+1)


def test_apply_bessel_weights_delta(tmp_path, capsys):
    w = LatticeWindow(1, 5)
    fpath = seq_csv(tmp_path, "f.csv", LatticeSequence.delta(w, (3,)))
    out = str(tmp_path / "out.csv")
    report_of(capsys, "apply", str(shipped_path("bessel2")), fpath, "--out", out)
    g = read_seq(out)
    assert g[(3,)] == pytest.approx(10.0)  # (1 + 3^2) delta_3


def test_ft_invft_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(11)
    w = LatticeWindow(1, 5)
    f = LatticeSequence.random(w, rng)
    fpath = seq_csv(tmp_path, "f.csv", f)
    torus = str(tmp_path / "torus.csv")
    back = str(tmp_path / "back.csv")
    report_of(capsys, "ft", fpath, "--out", torus)
    report_of(capsys, "invft", torus, "--out", back)
    g = read_seq(back)
    assert np.max(np.abs(g.values - f.values)) < 1e-12


@pytest.mark.parametrize("N", [24, 25])
def test_ft_invft_without_n_returns_the_window_of_a_default_grid(tmp_path, capsys, N):
    # invft reads N = (M - 3) / 2 off the grid, which is one-to-one only
    # while the default grid is 2N+3: a rule that mapped N = 24 and 25 to
    # one M would return a larger window for one of them
    f = LatticeSequence.random(LatticeWindow(1, N), np.random.default_rng(N))
    torus, back = str(tmp_path / "torus.csv"), str(tmp_path / "back.csv")
    assert report_of(capsys, "ft", seq_csv(tmp_path, "f.csv", f), "--out", torus)["config"]["M"] \
        == 2 * N + 3
    rep = report_of(capsys, "invft", torus, "--out", back)
    assert rep["config"]["N"] == N
    g = read_seq(back)
    assert g.window == f.window and np.max(np.abs(g.values - f.values)) < 1e-12


def test_torus_csv_round_trip(tmp_path):
    from latticeops import TorusFunction, TorusGrid
    grid = TorusGrid(1, 9)
    rng = np.random.default_rng(12)
    F = TorusFunction(grid, rng.normal(size=9) + 1j * rng.normal(size=9))
    path = tmp_path / "t.csv"
    write_torus_csv(path, F)
    G = read_torus_csv(path)
    assert np.array_equal(G.values, F.values)


def test_norm_command(tmp_path, capsys):
    w = LatticeWindow(1, 5)
    fpath = seq_csv(tmp_path, "f.csv", LatticeSequence.delta(w, (3,)))
    rep = report_of(capsys, "norm", fpath, "--s", "2")
    assert rep["sobolev_norm"] == pytest.approx(10.0)
    assert rep["l2_norm"] == pytest.approx(1.0)


def test_classify_bessel(tmp_path, capsys):
    rep = report_of(capsys, "classify", str(shipped_path("bessel2")), "--N", "32")
    assert rep["declared_order"] == 2.0
    assert rep["estimated_order"] == pytest.approx(2.0, abs=0.3)
    assert rep["ellipticity"]["elliptic"] is True
    assert rep["slope_table"]


def test_parametrix_command_and_csv(tmp_path, capsys):
    out = str(tmp_path / "decay.csv")
    rep = report_of(capsys, "parametrix", str(shipped_path("constant")),
                    "--N", "16", "--steps", "2", "--out", out)
    assert rep["max_left_residual"] < 1e-12
    # every row minimum of |sigma| is at least twice the floor theta (1+|k|)^m, theta = C/2
    sigma = shipped_symbol("constant")
    w = LatticeWindow(1, 16)
    g = default_grid(w)
    theta = check_ellipticity(sigma, rep["order"], w, g).C / 2.0
    row_min = np.min(np.abs(sigma.sample(w, g)), axis=1)
    assert np.all(row_min >= 2 * theta * np.power(w.radial_weight, rep["order"]))
    lines = open(out).read().splitlines()
    assert lines[0] == "shell,power,weighted_sup"
    assert len(lines) > 1


@pytest.mark.parametrize("name,n,N", [(name, 1, 32) for name in SHIPPED]
                         + [(name, 2, 8) for name in N2_POOL])
def test_parametrix_report_reads_the_residuals_the_extractions_give(name, n, N, tmp_path,
                                                                   capsys):
    # the report reads each residual from its defect's row maxima; its
    # numbers are those of the extracted residual symbols, bit for bit
    if n == 1:
        sigma, path = shipped_symbol(name), shipped_path(name)
    else:
        sigma, path = N2_POOL[name], tmp_path / "sigma.json"
        write_symbol_json(path, sigma)
    w = LatticeWindow(n, N)
    rep = report_of(capsys, "parametrix", str(path), "--n", str(n), "--N", str(N),
                    "--json", "--no-timestamp")
    par = parametrix(sigma, sigma.order or 0.0, 2, w, default_grid(w))
    assert rep["max_left_residual"] == np.max(np.abs(par.left_residual.values))
    assert rep["max_right_residual"] == np.max(np.abs(extract_symbol(par.right_defect).values))
    decay = residual_decay_report(par.left_residual, 3)
    assert rep["decay"] == {"powers": decay.powers, "shells": decay.shells,
                            "shell_sups": {str(p): decay.shell_sups[p] for p in decay.powers},
                            "schwartz_like": decay.schwartz_like}


def test_parametrix_command_forms_no_p_by_q_array(tmp_path, capsys):
    # a one-term symbol: the residuals' sizes come from the defects' row
    # maxima, so the command holds less than one (P, Q) complex array
    # (21 MB at n=2 N=16; extracting the two residual symbols holds 2.7 of them)
    path = tmp_path / "sigma.json"
    write_symbol_json(path, N2_POOL["expr-order2"])
    w = LatticeWindow(2, 16)
    report_of(capsys, "parametrix", str(path), "--n", "2", "--N", "4")  # first-call caches
    tracemalloc.start()
    try:
        rep = report_of(capsys, "parametrix", str(path), "--n", "2", "--N", str(w.N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {v["form"] for v in rep["sections"].values()} == {"sparse"}
    assert peak < w.size * default_grid(w).size * 16


def test_parametrix_reads_a_residual_zero_after_its_peak_as_decaying(capsys):
    # jump_plus's left residual is exactly zero beyond the first shell
    rep = report_of(capsys, "parametrix", str(shipped_path("jump_plus")), "--N", "16")
    for sups in rep["decay"]["shell_sups"].values():
        assert sups[0] > 0.0 and sups[1:] == [0.0] * (len(sups) - 1)
    assert rep["decay"]["schwartz_like"] is True


def test_solve_command(tmp_path, capsys):
    rng = np.random.default_rng(13)
    w = LatticeWindow(1, 8)
    f = LatticeSequence.random(w, rng)
    fpath = seq_csv(tmp_path, "f.csv", f)
    out = str(tmp_path / "u.csv")
    rep = report_of(capsys, "solve", str(shipped_path("constant")), fpath,
                    "--out", out, "--tol", "1e-10")
    u = read_seq(out)
    assert np.max(np.abs(u.values - f.values / 2)) < 1e-9
    assert rep["residual_interior"] <= 1e-10
    assert rep["fallback_used"] is False


def test_solve_reports_its_residual_history(tmp_path, capsys):
    w = LatticeWindow(1, 8)
    fpath = seq_csv(tmp_path, "f.csv", LatticeSequence.random(w, np.random.default_rng(13)))
    sym = sym_json(tmp_path, "s.json", "2 + exp(i*twopi*x1)/(1+k1^2)")
    argv = ["solve", sym, fpath, "--tol", "1e-10", "--no-timestamp"]
    code, first, _ = run(capsys, *argv)
    code2, second, _ = run(capsys, *argv)
    assert code == code2 == 0 and first == second
    rep = json.loads(first)
    assert rep["fallback_reason"] is None
    assert len(rep["residual_history"]) == rep["iterations"] + 1
    assert rep["residual_history"][-1] == rep["residual_interior"]


def test_sequence_nan_names_the_line(tmp_path, capsys):
    path = tmp_path / "f.csv"
    path.write_text("k1,re,im\n0,1.0,0.0\n1,nan,0.0\n")
    code, out, err = run(capsys, "apply", str(shipped_path("constant")), str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["message"].startswith("line 3: point [1]")


def test_apply_non_finite_symbol_is_precondition_error(tmp_path, capsys):
    w = LatticeWindow(1, 4)
    fpath = seq_csv(tmp_path, "f.csv", LatticeSequence.delta(w))
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, "apply", sym_json(tmp_path, "s.json", "1/k1"), fpath)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "ValueError",
                               "message": "symbol samples carry non-finite values"}


def test_spectrum_inclusion(tmp_path, capsys):
    out = str(tmp_path / "sv.csv")
    rep = report_of(capsys, "spectrum", "--kind", "inclusion", "--s", "0",
                    "--t", "1", "--windows", "64,128", "--out", out)
    assert rep["fit_exponent"] == pytest.approx(-1.0, abs=0.3)
    lines = open(out).read().splitlines()
    assert lines[0] == "window,j,singular_value"
    assert len(lines) == 1 + (2 * 64 + 1) + (2 * 128 + 1)


def test_spectrum_smoothing(capsys):
    rep = report_of(capsys, "spectrum", "--kind", "smoothing", "--eps", "2",
                    "--windows", "16,32")
    counts = rep["count_below_0.1"]
    assert counts[0] < counts[1]


def test_index_jump(capsys):
    rep = report_of(capsys, "index", str(shipped_path("jump_plus")),
                    "--windows", "16,24")
    assert rep["elliptic"] is True
    assert rep["svd_index"] == 1
    assert rep["trace_index"] == 1
    assert rep["agreement"] is True


def test_index_reports_are_deterministic(capsys):
    argv = ("index", str(shipped_path("jump_plus")), "--windows", "16,24",
            "--json", "--no-timestamp")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def _at_each_blas_thread_count(argv, out=None):
    """(stdout, the bytes of the file ``out``) of ``latticeops argv`` at
    OPENBLAS_NUM_THREADS 1 and 2."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        stdout = subprocess.run([sys.executable, "-m", "latticeops.cli", *argv],
                                capture_output=True, env=env, check=True, timeout=120).stdout
        runs.append((stdout, None if out is None else Path(out).read_bytes()))
    return runs


@pytest.mark.parametrize("symbol,n,windows", [
    ("perturbed_bessel", 1, "16,24,32"),
    ("(2+cos(twopi*x1))/(1+k1^2)", 1, "32,48,64"),  # not elliptic: the probe's P x P SVDs
    ("2 + exp(i*twopi*x1)/(1+k1^2+k2^2+cos(twopi*x2)^2)", 2, "6,8"),  # no split
    # split sections: the blocks of all three windows share stacked SVDs
    ("jump_plus", 1, "128,192,256"),
    ("step(k1)*exp(i*twopi*x1) + (1-step(k1)) + 0.15*exp(-i*twopi*x1)/(1+k1^2)", 1, "16,24,32"),
    # tau0's rows on grids of their own, from 7 to 105 of the 525 nodes
    ("step(k1)*exp(i*twopi*x1) + (1-step(k1)) + 0.15*exp(-i*twopi*x1)/(1+k1^2)", 1, "128,192,256"),
], ids=["perturbed_bessel", "non-elliptic", "no-split", "jump_plus", "perturbed-jump",
        "perturbed-jump-256"])
def test_index_reports_do_not_depend_on_the_blas_thread_count(tmp_path, symbol, n, windows):
    path = tmp_path / "s.json"
    if symbol in SHIPPED:
        path = shipped_path(symbol)
    else:
        write_symbol_json(path, parse_symbol(symbol, n, order=0))
    runs = _at_each_blas_thread_count(["index", str(path), "--windows", windows,
                                       "--json", "--no-timestamp"])
    assert runs[0] == runs[1] and json.loads(runs[0][0])["windows"]


def test_solve_does_not_depend_on_the_blas_thread_count(tmp_path):
    # expr-order0 at n=2 N=12: A's products run on its factors and B0's on
    # its sparse rows, so no product is a matrix-vector product through BLAS
    w = LatticeWindow(2, 12)
    write_symbol_json(tmp_path / "s.json", parse_symbol(
        "2 + exp(i*twopi*x1)/(1+k1^2+k2^2) + 0.5*cos(twopi*x2)/(1+k1^2)", 2, order=0))
    write_sequence_csv(tmp_path / "f.csv", LatticeSequence.random(
        w, np.random.default_rng(4), margin=interior_margin(w)))
    u = tmp_path / "u.csv"
    runs = _at_each_blas_thread_count(["solve", str(tmp_path / "s.json"), str(tmp_path / "f.csv"),
                                       "--tol", "1e-10", "--out", str(u), "--json",
                                       "--no-timestamp"], out=u)
    assert runs[0] == runs[1]
    assert json.loads(runs[0][0])["fallback_used"] is False


def test_index_non_elliptic_reports_probe(tmp_path, capsys):
    path = sym_json(tmp_path, "dec.json", "1/(1+k1^2)^(1/2)")
    rep = report_of(capsys, "index", path, "--windows", "16,32")
    assert rep["elliptic"] is False
    assert rep["svd_index"] is None and rep["trace_index"] is None
    counts = rep["probe"]["near_kernel_counts"]
    assert counts[0] < counts[1]


def test_verify_single_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "lattice-core")
    assert code == 0
    rep = json.loads(out)
    assert rep["all_passed"] is True
    assert set(rep["suites"]) == {"lattice-core"}


def test_verify_unknown_suite_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert json.loads(err)["error"] == "UnknownSuiteError"


def test_verify_reports_are_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--suite", "sobolev",
                         "--no-timestamp", "--json")
    code2, out2, _ = run(capsys, "verify", "--suite", "sobolev",
                         "--no-timestamp", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "norm", "/nonexistent/f.csv")
    assert code == 2
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_bad_symbol_text_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 1, "order": 0.0, "kind": "expr",
                                "expr": "2 +* k1"}))
    code, out, err = run(capsys, "classify", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "SymbolSyntaxError"


GRID = {"window": {"n": 1, "N": 1}, "grid": {"n": 1, "M": 3}}  # 3 x 3 samples


@pytest.mark.parametrize("doc", [
    [1, 2],
    "expr",
    {"n": 1, "kind": "grid", "grid": {**GRID, "values": [1, 2]}},
    {"n": 1, "kind": "grid", "grid": {**GRID, "values": [[1, 0]] * 4}},
    {"n": 1, "kind": "table"},
    {"n": 1, "kind": "builtin", "builtin": {"name": "gauss"}},
    {"n": 1, "kind": "builtin", "builtin": {"name": "jump", "params": {"direction": 2}}},
    {"n": 1, "kind": "builtin", "builtin": {"name": "bessel", "params": {"s": "two"}}},
], ids=["array", "string", "values-not-pairs", "values-count", "unknown-kind",
        "unknown-builtin", "jump-direction", "bessel-s"])
def test_malformed_symbol_file_is_parse_error(tmp_path, capsys, doc):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(path), "--N", "8")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ParseError"


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--bogus")
    assert code == 2


def test_aliasing_limit_is_precondition_error(tmp_path, capsys):
    w = LatticeWindow(1, 8)
    fpath = seq_csv(tmp_path, "f.csv", LatticeSequence.delta(w))
    code, out, err = run(capsys, "ft", fpath, "--M", "9")
    assert code == 3
    assert json.loads(err)["error"] == "AliasingError"


def test_dimension_mismatch_is_precondition_error(tmp_path, capsys):
    w = LatticeWindow(2, 3)
    fpath = seq_csv(tmp_path, "f.csv", LatticeSequence.delta(w))
    code, out, err = run(capsys, "apply", str(shipped_path("constant")), fpath)
    assert code == 3
    assert json.loads(err)["error"] == "DimensionMismatchError"


@pytest.mark.parametrize("argv", [("classify",), ("parametrix", "--N", "32"),
                                  ("index", "--windows", "16,24")])
def test_grid_symbol_beyond_its_backing_window_is_refused_first(tmp_path, capsys, argv):
    comp = str(tmp_path / "comp.json")
    report_of(capsys, "compose", str(shipped_path("jump_plus")),
              str(shipped_path("perturbed_bessel")), "--out", comp)  # backed by N=16
    command, *options = argv
    code, out, err = run(capsys, command, comp, *options)
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "OutOfWindowError"
    option = "--windows" if command == "index" else "--N"
    want = "{} {} leaves the backing window N=16".format(option, 24 if command == "index" else 32)
    assert payload["message"].startswith(want) and f"give {option} 16 or less" in payload["message"]
    # at the backing window the diagnostics run (parametrix then finds the
    # truncated outer shell of the composition not elliptic)
    code, out, err = run(capsys, command, comp,
                         *(["--windows", "8,16"] if command == "index" else ["--N", "16"]))
    assert "OutOfWindowError" not in err and (code == 0) == (command != "parametrix")


def test_non_elliptic_parametrix_is_precondition_error(tmp_path, capsys):
    path = sym_json(tmp_path, "sin.json", "sin(twopi*x1)")
    code, out, err = run(capsys, "parametrix", path, "--N", "16")
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "EllipticityError"
    assert payload["report"]["elliptic"] is False


def test_singular_solve_is_convergence_error(tmp_path, capsys):
    w = LatticeWindow(1, 16)
    f = LatticeSequence.random(w, np.random.default_rng(1), margin=4)  # interior at N=16
    code, out, err = run(capsys, "solve", str(shipped_path("jump_minus")),
                         seq_csv(tmp_path, "f.csv", f), "--tol", "1e-10")
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "ConvergenceError"
    assert "stall" in payload["message"] and len(payload["residual_history"]) == 22


def test_timestamp_present_by_default(tmp_path, capsys):
    w = LatticeWindow(1, 4)
    fpath = seq_csv(tmp_path, "f.csv", LatticeSequence.delta(w))
    rep = report_of(capsys, "norm", fpath)
    assert "timestamp" in rep and "elapsed_seconds" in rep
    rep2 = report_of(capsys, "norm", fpath, "--no-timestamp")
    assert "timestamp" not in rep2 and "elapsed_seconds" not in rep2


# -- dimension-generic symbol files ---------------------------------------

@pytest.fixture
def generic_bessel(tmp_path):
    from latticeops import bessel_symbol
    path = tmp_path / "bessel.json"
    write_symbol_json(path, bessel_symbol(2))
    assert json.loads(path.read_text())["n"] is None
    return str(path)


@pytest.fixture
def generic_expr(tmp_path):
    path = tmp_path / "expr.json"
    write_symbol_json(path, parse_symbol("2 + cos(twopi*x1)/(1+k1^2)", None, order=0.0))
    assert json.loads(path.read_text())["n"] is None
    return str(path)


@pytest.mark.parametrize("argv", [
    ["classify", "{bessel}", "--N", "8"],
    ["parametrix", "{bessel}", "--N", "8"],
    ["index", "{bessel}", "--windows", "8,12"],
    ["adjoint", "{bessel}", "--N", "8"],
    ["classify", "{expr}", "--N", "8"],
    ["parametrix", "{expr}", "--N", "8"],
    ["index", "{expr}", "--windows", "8,12"],
    ["adjoint", "{expr}", "--N", "8"],
])
def test_generic_symbol_takes_dimension_from_n(generic_bessel, generic_expr, capsys, argv):
    argv = [a.format(bessel=generic_bessel, expr=generic_expr) for a in argv]
    rep = report_of(capsys, *argv, "--n", "2")
    assert rep["config"]["n"] == 2
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "UsageError" and "--n" in payload["message"]


def test_generic_symbol_composes_with_a_dimensioned_one(generic_bessel, tmp_path, capsys):
    sym = sym_json(tmp_path, "one.json", "1")
    rep = report_of(capsys, "compose", generic_bessel, sym, "--N", "8")
    assert rep["config"]["n"] == 1 and rep["order"] == 2.0
    code, _, err = run(capsys, "compose", generic_bessel, sym, "--N", "8", "--n", "2")
    assert code == 3
    assert json.loads(err)["error"] == "DimensionMismatchError"


def test_generic_expression_needs_its_coordinates(tmp_path, capsys):
    path = tmp_path / "k2.json"
    write_symbol_json(path, parse_symbol("2 + k2^2", None, order=2.0))
    code, out, err = run(capsys, "classify", str(path), "--n", "1", "--N", "8")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "DimensionMismatchError"


def test_given_dimension_must_match_the_symbol(capsys):
    code, out, err = run(capsys, "classify", str(shipped_path("bessel2")), "--n", "2")
    assert code == 3
    assert json.loads(err)["error"] == "DimensionMismatchError"


def test_apply_generic_symbol_takes_the_sequence_dimension(generic_bessel, tmp_path, capsys):
    w = LatticeWindow(2, 3)
    fpath = seq_csv(tmp_path, "f.csv", LatticeSequence.delta(w, (1, 2)))
    out = str(tmp_path / "out.csv")
    rep = report_of(capsys, "apply", generic_bessel, fpath, "--out", out)
    assert rep["config"]["n"] == 2
    assert read_seq(out)[(1, 2)] == pytest.approx(6.0)  # 1 + 1^2 + 2^2


# -- parse and usage errors exit 2 -----------------------------------------

@pytest.mark.parametrize("text", [
    "x1,re,im\n0,1.0,0.0\n",            # bad header
    "k1,re,im\n0,abc,0.0\n",            # non-numeric value
    "k1,re,im\n0.5,1.0,0.0\n",          # non-integer point
    "k1,re,im\n0,1.0\n",                # short row
    "k1,re,im\n1,1.0,0.0\n1,2.0,0.0\n",  # duplicate k row
    "",                                 # empty file
    "k1,re,im\n0,1.0,-inf\n",          # infinite value
])
def test_bad_sequence_csv_is_parse_error(tmp_path, capsys, text):
    path = tmp_path / "f.csv"
    path.write_text(text)
    code, out, err = run(capsys, "norm", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("text", [
    "k1,re,im\n0.0,1,0\n0.5,1,0\n",              # bad header
    "x1,re,im\n0.0,abc,0\n0.5,1,0\n",            # non-numeric value
    "x1,re,im\n0.0,1,0\n0.5,1\n",               # short row
    "x1,re,im\n0.0,1,0\n0.0,2,0\n",              # duplicate node
    "x1,re,im\n0.0,1,0\n0.3,1,0\n",              # off-grid node
    "x1,re,im\n0.0,1,0\nnan,1,0\n",              # non-finite node
    "x1,re,im\n",                                # no rows
    "x1,re,im\n0.0,nan,0\n0.5,1,0\n",            # non-finite value
])
def test_bad_torus_csv_is_parse_error(tmp_path, capsys, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    code, out, err = run(capsys, "invft", str(path), "--N", "1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("M", [3, 4])
def test_invft_on_a_small_grid_takes_the_smallest_window(tmp_path, capsys, M):
    path = tmp_path / "t.csv"
    path.write_text("x1,re,im\n" + "".join(f"{j / M!r},1.0,0.0\n" for j in range(M)))
    rep = report_of(capsys, "invft", str(path), "--no-timestamp")
    assert rep["config"]["N"] == 1 and rep["config"]["M"] == M
    assert rep["config"]["aliasing_margin"] == M - 3
    assert rep["output_norms"]["l2"] == pytest.approx(1.0)  # the delta at k = 0


@pytest.mark.parametrize("argv", [
    ["ft", "{f}", "--M", "0"],
    ["invft", "{f}", "--N", "-3"],
    ["classify", "{s}", "--N", "0"],
    ["classify", "{s}", "--N", "abc"],
    ["compose", "{s}", "{s}", "--n", "0"],
    ["spectrum", "--kind", "smoothing", "--windows", "0,16"],
    ["spectrum", "--kind", "smoothing", "--windows", "a,b"],
    ["index", "{s}", "--windows", ""],
    ["parametrix", "{s}", "--steps", "0"],
    ["solve", "{s}", "{f}", "--steps", "0"],
    ["index", "{s}", "--steps", "0"],
    ["parametrix", "{s}", "--power", "-1"],
    ["classify", "{s}", "--alpha-max", "-1"],
    ["classify", "{s}", "--beta-max", "-1"],
])
def test_bad_size_option_is_usage_error(tmp_path, capsys, argv):
    w = LatticeWindow(1, 4)
    fpath = seq_csv(tmp_path, "f.csv", LatticeSequence.delta(w))
    sym = str(shipped_path("constant"))
    code, out, err = run(capsys, *[a.format(f=fpath, s=sym) for a in argv])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"
