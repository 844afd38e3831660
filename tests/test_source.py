"""Static checks on the package source."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latticeops

# __init__ imports only to re-export, so it is left out
MODULES = sorted(p for p in Path(latticeops.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []


def _declared_dependencies():
    # a regular expression rather than tomllib, which needs Python 3.11
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    deps = re.findall(r'"([^"]+)"', listed)
    return {re.split(r"[<>=!~\[; ]", d, maxsplit=1)[0].lower().replace("-", "_")
            for d in deps}


def test_source_imports_only_declared_dependencies():
    # a stray third-party import (scipy, say) would bring its own BLAS
    # thread pool alongside numpy's
    imported = set()
    for path in Path(latticeops.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"latticeops"}
    assert sorted(third_party - _declared_dependencies()) == []


def test_benchmark_trace_targets_resolve():
    # the tracer wraps these names from outside the package, and the smoke
    # test deletes core._dft_matrix, quantization._dft_matrix and core.phase_matrix
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    expected = next(ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "EXPECTED")
    for target in (*expected, "quantization._dft_matrix", "core.phase_matrix"):
        module, *attrs = target.split(".")
        obj = importlib.import_module(f"latticeops.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        assert callable(obj), target


def test_cli_import_loads_no_scipy():
    # a cold `import scipy.sparse` costs about 190 ms, which every
    # latticeops process would pay before its first job
    src = str(Path(latticeops.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, latticeops.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_readme_names_only_operator_matrix_attributes():
    # a helper deleted from OperatorMatrix must leave the README with it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = set(re.findall(r"`OperatorMatrix\.(\w+)", readme))
    assert names
    assert sorted(n for n in names if not hasattr(latticeops.OperatorMatrix, n)) == []
