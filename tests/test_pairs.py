"""``tools/pairs.py`` alternates the two checkouts, checks each pair and counts the pairs won."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", TOOL)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

# a stand-in for perfbench/run.py: p50 and the digest come from the checkout's own files
FAKE_RUN = """\
import json, pathlib, sys
here = pathlib.Path(__file__).resolve().parent.parent
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(here / "order.log", "a") as log:
    log.write(f"{here.name} {seed}\\n")
p50 = float((here / "p50").read_text()) + seed % 2
print(f"records sha256 {(here / 'digest').read_text().strip()} (over each pass; identical)")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
    "family_ms_p50": {"value": p50, "unit": "ms"},
    "families_per_s": {"value": 1000.0 / p50, "unit": "1/s"}}}))
"""
BENCHMARK = {"end_to_end": [
    {"name": "family_ms_p50", "better": "lower"},
    {"name": "families_per_s", "better": "higher"},
]}


def checkout(root: Path, name: str, p50: float, digest: str) -> Path:
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(FAKE_RUN)
    (path / "p50").write_text(str(p50))
    (path / "digest").write_text(digest)
    (path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return path


def run_tool(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload", "w",
         "--seeds", "1-4", "--seconds", "1"],
        capture_output=True, text=True, check=False,
    )


def test_alternates_and_counts_the_pairs_won(tmp_path):
    parent = checkout(tmp_path, "parent", 20.0, "abc")
    change = checkout(tmp_path, "change", 15.0, "abc")
    result = run_tool(parent, change)
    assert result.returncode == 0, result.stdout
    runs = [line.split() for line in (parent / "order.log").read_text().splitlines()]
    runs += [line.split() for line in (change / "order.log").read_text().splitlines()]
    expected = [[side, str(seed)] for side in ("parent", "change") for seed in (1, 2, 3, 4)]
    assert sorted(runs) == sorted(expected)
    assert "seed 1 (parent first)" in result.stdout and "seed 2 (change first)" in result.stdout
    summary = {line.split(":")[0]: line for line in result.stdout.splitlines() if "median" in line}
    assert "change won 4 of 4; gain" in summary["family_ms_p50"]
    assert "change won 4 of 4; gain" in summary["families_per_s"]
    probes = re.findall(r"^seed (\d): two-thread probe (\d+\.\d\d)$", result.stdout, re.MULTILINE)
    assert [seed for seed, _ in probes] == ["1", "2", "3", "4"]
    assert all(0.0 < float(value) < 10.0 for _, value in probes)
    assert re.search(r"^two-thread probe: median \d+\.\d\d over 4 pairs", summary["two-thread probe"])


def test_different_records_fail_the_comparison(tmp_path):
    parent = checkout(tmp_path, "parent", 20.0, "abc")
    change = checkout(tmp_path, "change", 20.0, "abd")
    result = run_tool(parent, change)
    assert result.returncode == 1
    assert "records sha256 differ" in result.stdout
    # equal medians: no pair won, no gain
    assert "change won 0 of 4" in result.stdout and "gain" not in result.stdout


def test_the_probe_runs_on_one_blas_thread(monkeypatch):
    calls = []

    def fake_run(argv, env, **kwargs):
        calls.append(env)
        return subprocess.CompletedProcess(argv, 0, stdout="1.5\n")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    assert pairs.two_thread_probe() == 1.5
    assert calls[0]["OPENBLAS_NUM_THREADS"] == "1" and calls[0]["OMP_NUM_THREADS"] == "1"


def test_quartiles_and_ties():
    assert pairs.quartiles([5.0]) == (5.0, 5.0)
    run = {"metrics": {"family_ms_p50": 1.0}}
    lines = pairs.summarize([(run, run)] * 3, {"family_ms_p50": "lower"})
    assert lines == [
        "family_ms_p50: parent median 1 (quartiles 1/1, spread 0) -> change median 1;"
        " change won 0 of 3"
    ]
