"""Layering rules over the source modules.

The precision layer: only ``optquad._series`` touches mpmath or defines its
arithmetic, ``optquad._exact`` works in plain Python integers, and a
float64 process loads neither mpmath nor fractions.  The libm policy: no
module takes a transcendental function from numpy, whose float64 ufuncs can
go through SVML and round differently from libm.  The output layer: only
``optquad.cli.main`` writes to stdout.  Every source module is parsed with
``ast``, so the rules hold whatever the modules do at import time; the
mpmath rule is also run in a fresh interpreter.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import optquad

SOURCES = sorted(Path(optquad.__file__).parent.glob("*.py"))


def _imported_modules(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_sources_found():
    assert {p.stem for p in SOURCES} >= {"_series", "core", "operator", "coefficients", "cli"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_precision_layer(path):
    tree = _parse(path)
    imported = _imported_modules(tree)
    assert not any(name == "mpmath.libmp" or name.startswith("mpmath.libmp.") for name in imported)
    defined = _defined_names(tree) & {"_Arith", "_arith"}
    if path.stem == "_series":
        # the rules below must not hold vacuously
        assert "mpmath" in imported and defined == {"_Arith", "_arith"}
    else:
        assert not any(name.split(".")[0] == "mpmath" for name in imported)
        assert not defined


def test_exact_layer_is_plain_integers():
    # the exact error norm's tables: Python integers only
    (path,) = [p for p in SOURCES if p.stem == "_exact"]
    roots = {name.split(".")[0] for name in _imported_modules(_parse(path))}
    assert roots and not roots & {"mpmath", "fractions", "decimal", "numpy"}


# run in a fresh interpreter: are mpmath and fractions loaded after each step?
_MPMATH_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
def loaded():
    return sorted(name for name in ("mpmath", "fractions") if name in sys.modules)
import optquad, optquad.cli
seen = {{"submodules": sorted(name for name in sys.modules if name.startswith("optquad.")),
         "unresolved": [name for name in optquad.__all__ if not hasattr(optquad, name)],
         "import": loaded()}}
optquad.closed_form_m2(4)
optquad.stable_roots(optquad.characteristic_polynomial(3, 0.25))
optquad.solve(optquad.assemble_system(3, 4))
seen["setup"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    seen["coeffs status"] = optquad.cli.main(["coeffs", "--m", "3", "--n", "8"])
    seen["coeffs"] = loaded()
    seen["convergence status"] = optquad.cli.main(["convergence", "--m", "2", "--norm-mode", "--n-list", "4,8"])
    seen["convergence"] = loaded()
optquad.psi(2, 0.5, dps=30)
seen["psi dps"] = loaded()
print(json.dumps(seen))
"""


def test_float64_process_never_loads_mpmath():
    # mpmath loads on the first extended-precision call, not before, and
    # fractions never: the float64 commands, the exact error norm among
    # them, need neither
    code = _MPMATH_PROBE.format(src=str(Path(optquad.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    seen = json.loads(out)
    # importing the package still loads every submodule and resolves every public name
    assert seen.pop("submodules") == sorted(f"optquad.{p.stem}" for p in SOURCES
                                            if p.stem not in ("__init__", "__main__"))
    assert seen.pop("unresolved") == []
    assert seen == {"import": [], "setup": [], "coeffs status": 0, "coeffs": [], "convergence status": 0,
                    "convergence": [], "psi dps": ["mpmath"]}


NUMPY_TRANSCENDENTALS = {"exp", "expm1", "sinh", "cosh", "tanh", "power", "float_power", "log", "log10",
                         "sin", "cos"}


def _numpy_transcendentals(tree: ast.Module) -> list[str]:
    """The numpy transcendental functions that ``tree`` references or imports by name."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            if node.attr in NUMPY_TRANSCENDENTALS:
                found.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [alias.name for alias in node.names if alias.name in NUMPY_TRANSCENDENTALS]
    return found


def test_libm_policy_rule_sees_numpy_calls():
    # the rule must not hold vacuously
    tree = ast.parse("import numpy as np\nimport numpy\nfrom numpy import cosh as c\n"
                     "np.exp(x) + numpy.power(x, 2) + np.abs(x)")
    assert sorted(_numpy_transcendentals(tree)) == ["cosh", "np.exp", "numpy.power"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_libm_policy(path):
    assert _numpy_transcendentals(_parse(path)) == []


def _stdout_writes(tree: ast.AST):
    """Nodes that can reach stdout: a ``sys.stdout`` reference or import, or a print without ``file=``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "stdout":
            if isinstance(node.value, ast.Name) and node.value.id == "sys":
                yield node
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if any(alias.name == "stdout" for alias in node.names):
                yield node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            if not any(keyword.arg == "file" for keyword in node.keywords):
                yield node


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_cli_main_writes_stdout(path):
    tree = _parse(path)
    allowed = set()
    if path.stem == "cli":
        (main,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"]
        allowed = {id(node) for node in _stdout_writes(main)}
        # the rule must not hold vacuously
        assert allowed
    assert [node.lineno for node in _stdout_writes(tree) if id(node) not in allowed] == []
