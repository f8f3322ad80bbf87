"""Count the code lines of the package: python3 tools/src_lines.py [SRC].

A code line is a non-blank physical line of a ``.py`` file under SRC
(default: ``src`` next to this directory) that is neither a comment line
nor part of a docstring statement, the string that opens a module, class
or function body.  Prints the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The physical line numbers that docstring statements span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    return sum(1 for number, line in enumerate(text.splitlines(), start=1)
               if number not in skip and line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    print(sum(code_lines(path) for path in sorted(root.rglob("*.py"))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
