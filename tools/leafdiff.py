"""List the leaf differences between two report JSON files.

Usage::

    python tools/leafdiff.py A.json B.json [--rename OLD=NEW ...]

Walks both documents together and sorts every difference into one class:

- keys added or removed: object keys, and list positions past the shorter
  list, present on one side only;
- integer, bool and string changes;
- type changes: a leaf whose JSON type differs (a number that became
  ``null``, an integer that became a float);
- float moves, each with its absolute size ``|b - a|`` and its relative
  size ``|b - a| / max(|a|, |b|)``, largest first.

``--rename OLD=NEW`` renames the object key ``OLD`` to ``NEW`` in A, at any
depth, before comparing, so the values under a renamed key are compared
instead of listed as one key removed and one added.  The exit status is 0
when the documents agree leaf for leaf and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

KEYS_ADDED = "keys added"
KEYS_REMOVED = "keys removed"
INTEGERS = "integer changes"
BOOLS = "bool changes"
STRINGS = "string changes"
TYPES = "type changes"
FLOATS = "float moves"
CLASSES = (KEYS_ADDED, KEYS_REMOVED, INTEGERS, BOOLS, STRINGS, TYPES, FLOATS)
_SCALAR_CLASS = {"integer": INTEGERS, "bool": BOOLS, "string": STRINGS}


def _kind(x) -> str:
    if isinstance(x, bool):
        return "bool"
    if isinstance(x, int):
        return "integer"
    if isinstance(x, float):
        return "float"
    if isinstance(x, str):
        return "string"
    if isinstance(x, list):
        return "list"
    if isinstance(x, dict):
        return "object"
    return "null"


def _child(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def leaf_diff(a, b, renames: dict[str, str] | None = None) -> dict[str, list[tuple]]:
    """Every leaf difference between the documents ``a`` and ``b``, by class.

    Key entries are ``(path,)``; float moves are ``(path, old, new, abs,
    rel)``; every other entry is ``(path, old, new)``.
    """
    renames = renames or {}
    out: dict[str, list[tuple]] = {c: [] for c in CLASSES}

    def walk(x, y, path: str) -> None:
        kx, ky = _kind(x), _kind(y)
        if kx != ky:
            out[TYPES].append((path, x, y))
        elif kx == "object":
            renamed = {renames.get(k, k): v for k, v in x.items()}
            if len(renamed) != len(x):
                raise ValueError(f"a renamed key collides with an existing key at {path!r}")
            for key in sorted(renamed.keys() | y.keys()):
                if key not in y:
                    out[KEYS_REMOVED].append((_child(path, key),))
                elif key not in renamed:
                    out[KEYS_ADDED].append((_child(path, key),))
                else:
                    walk(renamed[key], y[key], _child(path, key))
        elif kx == "list":
            for i in range(max(len(x), len(y))):
                if i >= len(y):
                    out[KEYS_REMOVED].append((f"{path}[{i}]",))
                elif i >= len(x):
                    out[KEYS_ADDED].append((f"{path}[{i}]",))
                else:
                    walk(x[i], y[i], f"{path}[{i}]")
        elif kx == "float":
            if x != y and not (math.isnan(x) and math.isnan(y)):
                size = abs(y - x)
                out[FLOATS].append((path, x, y, size, size / max(abs(x), abs(y))))
        elif x != y:
            out[_SCALAR_CLASS[kx]].append((path, x, y))

    walk(a, b, "")
    out[FLOATS].sort(key=lambda e: -e[3])
    return out


def _show(v) -> str:
    kind = _kind(v)
    if kind == "object":
        return "<object>"
    if kind == "list":
        return f"<list of {len(v)}>"
    return repr(v) if kind == "float" else json.dumps(v)


def format_diff(diff: dict[str, list[tuple]]) -> str:
    """The differences as text: one header per class, then one line per leaf."""
    lines = []
    for cls in CLASSES:
        entries = diff[cls]
        header = f"{cls}: {len(entries)}"
        if cls == FLOATS and entries:
            header += (
                f", largest abs {max(e[3] for e in entries):.3e}"
                f", largest rel {max(e[4] for e in entries):.3e}"
            )
        lines.append(header)
        for e in entries:
            if len(e) == 1:
                lines.append(f"  {e[0]}")
            elif cls == FLOATS:
                lines.append(f"  {e[0]}: {e[1]!r} -> {e[2]!r} (abs {e[3]:.3e}, rel {e[4]:.3e})")
            else:
                lines.append(f"  {e[0]}: {_show(e[1])} -> {_show(e[2])}")
    return "\n".join(lines) + "\n"


def _rename(spec: str) -> tuple[str, str]:
    old, sep, new = spec.partition("=")
    if not (sep and old and new):
        raise argparse.ArgumentTypeError(f"expected OLD=NEW, got {spec!r}")
    return old, new


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="the old report JSON")
    parser.add_argument("b", help="the new report JSON")
    parser.add_argument(
        "--rename", type=_rename, action="append", default=[], metavar="OLD=NEW",
        help="compare A's key OLD with B's key NEW (repeatable)",
    )
    args = parser.parse_args(argv)
    with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
        diff = leaf_diff(json.load(fa), json.load(fb), dict(args.rename))
    sys.stdout.write(format_diff(diff))
    return 1 if any(diff.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
