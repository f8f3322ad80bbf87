"""The README's examples run as written, and its names are the package's.

The Python quick tour and each CLI line run; every name ``optquad``
exports resolves, and the removed names are gone from the package and
the README.
"""

import re
import shlex
from pathlib import Path

import pytest

import optquad
from optquad import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _fenced(heading: str, lang: str) -> str:
    """The first ```lang block after the line '## heading'."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


CLI_LINES = [shlex.split(line, comments=True) for line in _fenced("CLI", "sh").splitlines()
             if line.startswith("optquad ")]


def test_quick_tour_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_fenced("Library quick tour", "python"), "README quick tour", "exec"), {})


@pytest.mark.parametrize("argv", CLI_LINES, ids=" ".join)
def test_cli_line_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv[1:]) == 0, capsys.readouterr().err


# public names the closed-form identity checks made unused, and their exception
REMOVED_NAMES = ("convolve", "tail_bound", "window_for", "ToleranceError")


def test_every_exported_name_resolves():
    assert [name for name in optquad.__all__ if not hasattr(optquad, name)] == []


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_is_gone(name):
    assert name not in optquad.__all__
    assert not hasattr(optquad, name)
    assert re.search(rf"\b{name}\b", README) is None
