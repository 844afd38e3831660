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
    "apply": {"n", "N", "M", "out"},
    "ft": {"n", "N", "M", "out"},
    "invft": {"n", "N", "M", "out"},
    "compose": {"n", "N", "M", "out"},
    "adjoint": {"n", "N", "M", "out"},
    "norm": {"n", "N"},
    "classify": {"n", "N", "M"},
    "parametrix": {"n", "N", "M", "out"},
    "solve": {"n", "N", "M", "out"},
    "spectrum": {"n", "N", "out"},
    "index": {"n", "N", "M"},
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
