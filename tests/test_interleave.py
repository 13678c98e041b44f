"""``tools/interleave.py`` loads two checkouts side by side and compares their records."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "interleave.py"

# a stand-in checkout: its records carry a value from its own package
FAKE_WORKLOADS = """\
from dataclasses import dataclass

from apsflow import reporting


@dataclass(frozen=True)
class Family:
    label: str


@dataclass(frozen=True)
class Case:
    family: Family


class Fake:
    name = "fake"

    @staticmethod
    def build(seed, limit):
        return [Case(Family(f"fake-{seed}-{j}")) for j in range(3)][:limit]

    @staticmethod
    def work(case):
        return [{"family": case.family.label, "value": reporting.VALUE}], None


WORKLOADS = {"fake": Fake}
"""


def fake_checkout(root: Path, name: str, value: int) -> Path:
    path = root / name
    (path / "src" / "apsflow").mkdir(parents=True)
    (path / "perfbench").mkdir()
    (path / "src" / "apsflow" / "__init__.py").write_text("")
    (path / "src" / "apsflow" / "reporting.py").write_text(
        f"import json\nVALUE = {value}\n\n\ndef canonical_json(obj):\n"
        "    return json.dumps(obj, sort_keys=True)\n"
    )
    (path / "perfbench" / "workloads.py").write_text(FAKE_WORKLOADS)
    return path


def run_tool(a, b, *args):
    return subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), *args],
        capture_output=True, text=True, check=False, timeout=170,
    )


@pytest.mark.parametrize("workload", ["transport-zoo", "bvp-grid"])
def test_smoke_on_this_checkout_against_itself(workload):
    result = run_tool(ROOT, ROOT, "--workload", workload, "--seed", "0", "--rounds", "1",
                      "--limit", "1")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert f"{workload} seed 0, 1 rounds (warm), 1 families: B/A per family median" in lines[-3]
    assert lines[-2].startswith("A: p50 ") and lines[-1].startswith("B: p50 ")


def test_each_side_runs_its_own_package(tmp_path):
    a = fake_checkout(tmp_path, "a", 1)
    same = fake_checkout(tmp_path, "same", 1)
    b = fake_checkout(tmp_path, "b", 2)
    agree = run_tool(a, same, "--workload", "fake", "--seed", "4", "--rounds", "2", "--fresh")
    assert agree.returncode == 0, agree.stdout + agree.stderr
    assert "fake seed 4, 2 rounds (fresh), 3 families" in agree.stdout
    differ = run_tool(a, b, "--workload", "fake", "--seed", "4", "--rounds", "2", "--limit", "2")
    assert differ.returncode == 1
    assert "round 0: fake-4-0: records differ" in differ.stdout
    assert "round 1: fake-4-1: records differ" in differ.stdout
    assert "4 family records differ between A and B" in differ.stdout
