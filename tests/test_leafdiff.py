"""``tools/leafdiff.py`` sorts every leaf difference of two report JSONs into its class."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "leafdiff.py"
_spec = importlib.util.spec_from_file_location("leafdiff", TOOL)
leafdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(leafdiff)

OLD = {
    "kept": {"n": 3, "x": 0.5, "label": "same", "flag": True, "none": None},
    "gone": 1,
    "n": 2,
    "flag": True,
    "method": "ode-shooting",
    "retyped": 1,
    "x": 2.0,
    "items": [1.0, 4.0, 7],
    "condition_max": 5.0,
}
NEW = {
    "kept": {"n": 3, "x": 0.5, "label": "same", "flag": True, "none": None},
    "new": [],
    "n": 3,
    "flag": False,
    "method": "discretized-bvp",
    "retyped": 1.0,
    "x": 2.5,
    "items": [1.0, 4.000001],
    "condition": 4.0,
}


def test_each_class_is_found():
    diff = leafdiff.leaf_diff(OLD, NEW)
    assert diff[leafdiff.KEYS_ADDED] == [("condition",), ("new",)]
    assert diff[leafdiff.KEYS_REMOVED] == [("condition_max",), ("gone",), ("items[2]",)]
    assert diff[leafdiff.INTEGERS] == [("n", 2, 3)]
    assert diff[leafdiff.BOOLS] == [("flag", True, False)]
    assert diff[leafdiff.STRINGS] == [("method", "ode-shooting", "discretized-bvp")]
    assert diff[leafdiff.TYPES] == [("retyped", 1, 1.0)]
    # largest move first, each with |b - a| and |b - a| / max(|a|, |b|)
    (p1, a1, b1, abs1, rel1), (p2, *_, abs2, rel2) = diff[leafdiff.FLOATS]
    assert (p1, a1, b1, abs1, rel1) == ("x", 2.0, 2.5, 0.5, 0.2)
    assert p2 == "items[1]"
    assert abs2 == pytest.approx(1e-6) and rel2 == pytest.approx(1e-6 / 4.000001)


def test_rename_compares_the_values_under_a_renamed_key():
    diff = leafdiff.leaf_diff(OLD, NEW, {"condition_max": "condition"})
    assert diff[leafdiff.KEYS_ADDED] == [("new",)]
    assert ("condition_max",) not in diff[leafdiff.KEYS_REMOVED]
    assert diff[leafdiff.FLOATS][0][:3] == ("condition", 5.0, 4.0)


def test_identical_documents_have_no_difference():
    diff = leafdiff.leaf_diff(OLD, json.loads(json.dumps(OLD)))
    assert not any(diff.values())
    assert "float moves: 0" in leafdiff.format_diff(diff)


def test_command_line(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(OLD))
    b.write_text(json.dumps(NEW))

    def run(*args):
        return subprocess.run(
            [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=60
        )

    same = run(str(a), str(a))
    assert same.returncode == 0 and "integer changes: 0" in same.stdout
    moved = run(str(a), str(b), "--rename", "condition_max=condition")
    assert moved.returncode == 1
    lines = moved.stdout.splitlines()
    assert "keys added: 1" in lines and "keys removed: 2" in lines
    assert "float moves: 3, largest abs 1.000e+00, largest rel 2.000e-01" in lines
    assert "  retyped: 1 -> 1.0" in lines
    assert "  condition: 5.0 -> 4.0 (abs 1.000e+00, rel 2.000e-01)" in lines
    bad = run(str(a), str(b), "--rename", "condition_max")
    assert bad.returncode == 2 and "OLD=NEW" in bad.stderr
