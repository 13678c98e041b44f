"""Count the lines of Python source that hold code, and the defaulted parameters.

Usage::

    python tools/codelines.py PATH...

Each ``PATH`` is a ``.py`` file or a directory, searched for ``.py`` files
recursively.  A line counts when some token other than a comment, a line
break or an indentation change starts, ends or runs through it; blank lines,
comments and docstrings (the string statement that opens a module, class or
function body) do not count.  A defaulted parameter is one of a function or
lambda that has a default value, keyword-only ones included.  Prints one
line per file, ``LINES DEFAULTED PATH``, in path order, then
``LINES DEFAULTED total``.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings occupy."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def defaulted_parameters(source: str) -> int:
    """The number of parameters in ``source`` that have a default value."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def python_files(paths) -> list[Path]:
    """The ``.py`` files named or found under the directories named, sorted."""
    files = set()
    for path in map(Path, paths):
        files.update(path.rglob("*.py") if path.is_dir() else [path])
    return sorted(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    args = parser.parse_args(argv)
    total_lines = total_defaulted = 0
    for path in python_files(args.paths):
        source = path.read_text(encoding="utf-8")
        lines, defaulted = code_lines(source), defaulted_parameters(source)
        total_lines += lines
        total_defaulted += defaulted
        print(f"{lines} {defaulted} {path}")
    print(f"{total_lines} {total_defaulted} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
