"""The precision layer: only ``optquad._series`` touches mpmath or defines its arithmetic.

Every source module is parsed with ``ast``, so the rules hold whatever the
modules do at import time.
"""

import ast
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
