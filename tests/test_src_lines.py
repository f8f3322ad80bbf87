"""tools/src_lines.py counts code lines: non-blank, non-comment, outside docstrings."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def _count(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, check=True).stdout


def test_counts_code_lines_only(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        '"""Module doc,\n\nover three lines."""\n\n# a comment\nimport os  # a trailing comment\n\n\n'
        'class A:\n    """Class doc."""\n\n    def f(self):\n        """Doc."""\n        return """not a docstring"""\n'
    )
    (tmp_path / "b.py").write_text("x = 1\n")
    assert _count(str(tmp_path)) == "5\n"


def test_counts_the_package():
    assert int(_count()) > 1000
