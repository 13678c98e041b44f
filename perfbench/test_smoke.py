"""Smoke test of the benchmark: each workload at its smallest size, both modes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

It checks the output contract only (every metric named in BENCHMARK.json
is printed with its unit, and the correctness gate passes); timings are
not judged.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = ["perfbench/run.py", "--seed", "0", "--seconds", "1", "--limit", "1"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, *RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace, kind):
    done = _run(ROOT, "--workload", workload, "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark's own files,
    # kept inside the benchmark's ignored output directory
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    skip = shutil.ignore_patterns("out", "__pycache__", "test_*.py")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=skip)
    done = _run(bare, "--workload", SPEC["workloads"][0]["name"], "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
