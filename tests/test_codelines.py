"""``tools/codelines.py`` counts the lines that hold code, not docstrings, comments or blanks,
and the parameters that have defaults."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
_spec = importlib.util.spec_from_file_location("codelines", TOOL)
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a comment after code


# a comment on its own line
class Box:
    """Class docstring."""

    size = 2

    def area(self, scale=1.0, *, unit="m", exact):
        """Function docstring."""
        text = """a string
that is not a docstring"""
        return (
            self.size
            * math.pi
        ), text


def plain(a, b, /, c=2, *args, d=None, **kw):
    return (lambda x, y=1: x + y)(a)
'''


def test_only_code_lines_count():
    # import, class, size, def, the two-line string, return, three lines of
    # its expression; the def and return of plain
    assert codelines.code_lines(SOURCE) == 12


def test_defaulted_parameters():
    # scale and unit (self and exact have none); c, d and the lambda's y
    assert codelines.defaulted_parameters(SOURCE) == 5


def test_files_and_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n', encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "pkg")],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines() == [
        f"12 5 {tmp_path / 'pkg' / 'a.py'}",
        f"1 0 {tmp_path / 'pkg' / 'b.py'}",
        "13 5 total",
    ]
