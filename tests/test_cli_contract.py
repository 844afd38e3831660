"""The command-line contract: each subcommand takes only the options it
reads, reports strict JSON and records only the settings its run used."""

import argparse
import json
import sys
import warnings

import pytest

from latticeops import LatticeSequence, LatticeWindow, shipped_path, write_sequence_csv
from latticeops.cli import build_parser, main

COMMON = {"--json", "--no-timestamp"}

# subcommand -> (shared options it takes, its own options)
OPTIONS = {
    "apply": ({"--M", "--out"}, set()),
    "ft": ({"--M", "--out"}, set()),
    "invft": ({"--N", "--out"}, set()),
    "compose": ({"--n", "--N", "--M", "--out"}, set()),
    "adjoint": ({"--n", "--N", "--M", "--out"}, set()),
    "norm": (set(), {"--s"}),
    "classify": ({"--n", "--N", "--M"}, {"--m", "--alpha-max", "--beta-max"}),
    "parametrix": ({"--n", "--N", "--M", "--out"}, {"--m", "--steps", "-J", "--power"}),
    "solve": ({"--M", "--out"}, {"--m", "--tol", "--steps", "-J"}),
    "spectrum": ({"--n", "--out"}, {"--kind", "--s", "--t", "--eps", "--windows"}),
    "index": ({"--n"}, {"--windows", "--steps", "-J"}),
    "verify": ({"--seed", "--out"}, {"--suite"}),
}

SHARED_VALUES = {"--n": "1", "--N": "8", "--M": "99", "--seed": "1", "--out": "removed.out"}

REMOVED = [(cmd, opt) for cmd, (shared, _) in OPTIONS.items()
           for opt in SHARED_VALUES if opt not in shared]

# config keys beyond command and version
CONFIG_KEYS = {
    "apply": {"n", "N", "M", "aliasing_margin", "out"},
    "ft": {"n", "N", "M", "aliasing_margin", "out"},
    "invft": {"n", "N", "M", "aliasing_margin", "out"},
    "compose": {"n", "N", "M", "aliasing_margin", "out"},
    "adjoint": {"n", "N", "M", "aliasing_margin", "out"},
    "norm": {"n", "N"},
    "classify": {"n", "N", "M", "aliasing_margin"},
    "parametrix": {"n", "N", "M", "aliasing_margin", "out"},
    "solve": {"n", "N", "M", "aliasing_margin", "out"},
    "spectrum": {"n", "N", "out"},
    "index": {"n", "N", "M", "aliasing_margin"},
    "verify": {"seed", "out"},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    seq = d / "f.csv"
    write_sequence_csv(seq, LatticeSequence.delta(LatticeWindow(1, 5)))
    torus = d / "torus.csv"
    assert main(["ft", str(seq), "--out", str(torus), "--no-timestamp"]) == 0
    return {"sym": str(shipped_path("constant")), "seq": str(seq),
            "torus": str(torus), "dir": d}


def good_argv(cmd, f):
    sym, seq = f["sym"], f["seq"]
    return {
        "apply": [sym, seq],
        "ft": [seq],
        "invft": [f["torus"]],
        "compose": [sym, sym, "--N", "8"],
        "adjoint": [sym, "--N", "8"],
        "norm": [seq],
        "classify": [sym, "--N", "8"],
        "parametrix": [sym, "--N", "8"],
        "solve": [sym, seq],
        "spectrum": ["--kind", "smoothing", "--windows", "8,16"],
        # a constant symbol has no null singular value, so its gap is infinite
        "index": [sym, "--windows", "8,12"],
        "verify": ["--suite", "sobolev"],
    }[cmd]


def _reject(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_each_subcommand_takes_exactly_its_options():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(OPTIONS)
    settable = 0
    for cmd, (shared, own) in OPTIONS.items():
        actions = [a for a in sub.choices[cmd]._actions if a.option_strings
                   and a.dest != "help"]
        strings = {s for a in actions for s in a.option_strings}
        assert strings == shared | own | COMMON, cmd
        settable += len(actions)
    assert settable == 70
    assert len(REMOVED) == 32


@pytest.mark.parametrize("cmd,option", REMOVED)
def test_removed_option_is_usage_error(files, capsys, cmd, option):
    value = SHARED_VALUES[option]
    if option == "--out":
        value = str(files["dir"] / f"{cmd}.out")
    code = main([cmd, *good_argv(cmd, files), option, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "UsageError"
    assert option in payload["message"]
    assert not (files["dir"] / f"{cmd}.out").exists()


@pytest.mark.parametrize("cmd", sorted(OPTIONS))
def test_report_is_strict_json_with_only_used_config(files, capsys, cmd):
    code = main([cmd, *good_argv(cmd, files), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    report = json.loads(captured.out, parse_constant=_reject)
    assert set(report["config"]) == {"command", "version"} | CONFIG_KEYS[cmd]
    assert report["config"]["command"] == cmd


INDEX_KEYS = {"config", "elliptic", "windows", "dim_ker", "dim_coker", "gap_evidence",
              "svd_index", "trace_index_raw", "trace_index", "agreement", "tail_bound",
              "trace_sections"}
PROBE_KEYS = {"elliptic", "ellipticity", "atkinson", "near_kernel_counts", "windows",
              "consistent"}
ELLIPTICITY_KEYS = {"elliptic", "C", "M_radius", "min_ratio_profile", "shells"}
PARAMETRIX_KEYS = {"config", "order", "steps", "max_left_residual", "max_right_residual",
                   "sections", "decay"}
SECTION_KEYS = {"form", "mean_row_entries", "max_row_entries"}
DECAY_KEYS = {"powers", "shells", "shell_sups", "schwartz_like"}


def _step_symbol(files):
    sym = files["dir"] / "step.json"
    sym.write_text(json.dumps({"n": 1, "order": 0, "kind": "expr", "expr": "1 - step(k1)"}))
    return str(sym)


def _report(capsys, argv):
    code = main([*argv, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out, parse_constant=_reject)


def test_report_key_sets(files, capsys):
    elliptic = _report(capsys, ["index", *good_argv("index", files)])
    assert set(elliptic) == INDEX_KEYS
    assert set(elliptic["gap_evidence"][0]) == {"N", "dim_ker", "dim_coker",
                                                "raw_null_count", "gap", "blocks",
                                                "largest_block", "route", "lower_bound"}
    probed = _report(capsys, ["index", _step_symbol(files), "--windows", "8,12"])
    assert set(probed) == INDEX_KEYS | {"probe"}
    assert set(probed["probe"]) == PROBE_KEYS
    assert set(probed["probe"]["ellipticity"]) == ELLIPTICITY_KEYS
    classify = _report(capsys, ["classify", *good_argv("classify", files)])
    assert set(classify["ellipticity"]) == ELLIPTICITY_KEYS
    par = _report(capsys, ["parametrix", *good_argv("parametrix", files)])
    assert set(par) == PARAMETRIX_KEYS
    assert set(par["sections"]) == {"B_J", "left_defect", "right_defect"}
    assert all(set(v) == SECTION_KEYS for v in par["sections"].values())
    assert set(elliptic["trace_sections"]) == set(par["sections"])
    assert set(par["decay"]) == DECAY_KEYS
    spectrum = _report(capsys, ["spectrum", *good_argv("spectrum", files)])
    assert set(spectrum) == {"config", "kind", "description", "windows", "singular_values",
                             "fit_exponent", "count_below_0.1", "fraction_below_0.1"}


def test_index_reports_the_one_grid_its_certificate_and_windows_read(capsys, monkeypatch):
    # every window of an index run shares the largest one's index grid:
    # at N = 128 the smallest odd M >= 2N+3 with prime factors up to 11
    from latticeops import fredholm

    grids, sections = [], []
    original_parametrix, original_evidence = fredholm._parametrix, fredholm._evidence

    def making(sigma, terms, m, J, window, grid, A=None):
        grids.append(grid.M)
        return original_parametrix(sigma, terms, m, J, window, grid, A)

    def evidence(As, par):
        sections.extend(As)
        return original_evidence(As, par)

    monkeypatch.setattr(fredholm, "_parametrix", making)
    monkeypatch.setattr(fredholm, "_evidence", evidence)
    rep = _report(capsys, ["index", str(shipped_path("perturbed_bessel")),
                           "--windows", "64,96,128", "--json"])
    assert (rep["config"]["N"], rep["config"]["M"], rep["config"]["aliasing_margin"]) == \
        (128, 275, 275 - 257)
    assert rep["svd_index"] == rep["trace_index"] == 0
    # the largest window's parametrix, which certifies sigma, and the
    # sections of the three windows the run built: the command runs no
    # certificate of its own
    assert grids == [275]
    assert [(A.window.N, A.grid.M) for A in sections] == [(64, 275), (96, 275), (128, 275)]


def test_index_probe_gives_no_verdict_from_one_window(files, capsys):
    rep = _report(capsys, ["index", _step_symbol(files), "--windows", "32"])
    assert rep["elliptic"] is False
    assert rep["probe"]["windows"] == [32] and len(rep["probe"]["near_kernel_counts"]) == 1
    assert rep["probe"]["consistent"] is None


def _print_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@pytest.mark.parametrize("cmd", ["apply", "classify"])
def test_non_finite_symbol_leaves_one_json_object_on_stderr(files, capsys, cmd):
    # 1/k1 has a pole at k1 = 0; a numpy warning would print to stderr
    # ahead of the JSON error, so warnings are printed as a process prints them
    sym = files["dir"] / "pole.json"
    sym.write_text(json.dumps({"n": 1, "order": 0, "kind": "expr", "expr": "1/k1"}))
    argv = {"apply": [str(sym), files["seq"]], "classify": [str(sym), "--N", "8"]}[cmd]
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        code = main([cmd, *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError",
                                        "message": "symbol samples carry non-finite values"}


def test_constant_zero_divisor_is_refused_as_non_finite(files, capsys):
    # Python raises ZeroDivisionError on the scalar 2/0; the samples carry inf
    # instead, as 1/k1 does at k1 = 0, and the non-finite rule refuses them
    sym = files["dir"] / "zero.json"
    sym.write_text(json.dumps({"n": 1, "order": 0, "kind": "expr", "expr": "2/(2-2) + k1"}))
    code = main(["classify", str(sym), "--N", "8"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError",
                                        "message": "symbol samples carry non-finite values"}


@pytest.mark.parametrize("doc,field", [
    ({"n": 1, "kind": "builtin", "builtin": "bessel"}, "builtin"),
    ({"n": 1, "kind": "builtin", "builtin": {"name": "bessel", "params": []}}, "params"),
    ({"n": "1", "kind": "expr", "expr": "1 + k1^2"}, "n"),
    ({"n": 1, "order": "two", "kind": "expr", "expr": "1 + k1^2"}, "order"),
    ({"n": 1, "kind": "grid", "grid": {"window": {"n": 1, "N": 0}, "grid": {"n": 1, "M": 3},
                                       "values": []}}, "N"),
    ({"n": 1, "expr": "1 + k1^2"}, "kind"),
], ids=["builtin-string", "params-list", "n-string", "order-string", "window-N-zero",
        "kind-missing"])
def test_malformed_symbol_field_is_parse_error_naming_it(files, capsys, doc, field):
    sym = files["dir"] / "malformed.json"
    sym.write_text(json.dumps(doc))
    code = main(["classify", str(sym), "--N", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    err = json.loads(captured.err)  # exactly one JSON document
    assert isinstance(err, dict) and err["error"] == "ParseError"
    assert repr(field) in err["message"]
