"""Compare two checkouts on one perfbench workload, in alternated pairs of runs.

Usage::

    python tools/pairs.py PARENT CHANGE --workload W --seeds A-B --seconds S

Runs ``perfbench/run.py --workload W --seed N --seconds S --trace 0`` once
from each checkout for every seed ``N`` from ``A`` to ``B``, one run at a
time: the parent first on the first pair, the change first on the next,
and so on.  Every run must exit 0 and report ``correct``, and both runs of
a pair must print the same ``records sha256``.  It then prints, per
end-to-end metric, both medians, the parent's quartiles and their spread,
and the number of pairs the change won (a tie counts for neither side);
``gain`` marks a metric whose change median is better than the parent's by
more than that spread.  A metric's better direction comes from
``BENCHMARK.json`` at the root of CHANGE.  The exit status is 0 when every
run was correct and every pair's digests matched, and 1 otherwise.

Before each pair it prints a two-thread probe of the machine (see
``PROBE``), and at the end the probe's median, so that a series measured
without a free second CPU can be told apart.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

DIGESTS = re.compile(r"^records sha256 ([0-9a-f ]+) \(", re.MULTILINE)

# Run in a child with one BLAS thread: the fastest of 3 times of a fixed
# eigh workload on one thread, over the fastest of 3 times of the same
# workload on each of two threads at once, times 2.  About 2.0 when a second
# CPU is free, 1.0 when the two threads share one.
PROBE = """\
import threading, time
import numpy as np
g = np.random.default_rng(0).standard_normal((2, 32, 16, 16))
a = g[0] + 1j * g[1]
a = a + a.conj().swapaxes(1, 2)
def work():
    for _ in range(24):
        np.linalg.eigh(a)
def timed(threads):
    best = float("inf")
    for _ in range(3):
        ts = [threading.Thread(target=work) for _ in range(threads)]
        start = time.perf_counter()
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        best = min(best, time.perf_counter() - start)
    return best
work()
print(2.0 * timed(1) / timed(2))
"""
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def two_thread_probe() -> float:
    """The machine's two-thread parallel efficiency now: ``PROBE`` in a child process."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env={**os.environ, **ONE_BLAS_THREAD},
        capture_output=True, text=True, check=True,
    )
    return float(proc.stdout)


def _seeds(spec: str) -> list[int]:
    first, sep, last = spec.partition("-")
    try:
        seeds = list(range(int(first), int(last if sep else first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {spec!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {spec!r}")
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its exit status, correctness, metrics and records digests."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    digests = DIGESTS.search(proc.stdout)
    return {
        "ok": proc.returncode == 0 and result.get("correct") is True,
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        "digests": digests.group(1).split() if digests else None,
        "stderr": proc.stderr.strip().splitlines()[-3:],
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """One line per metric: medians, the parent's quartiles and the pairs the change won."""
    lines = []
    for name in pairs[0][0]["metrics"]:
        higher = better.get(name, "lower") == "higher"
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        mp, mc = statistics.median(parent), statistics.median(change)
        gain = (mc - mp if higher else mp - mc) > q3 - q1
        lines.append(
            f"{name}: parent median {mp:.6g} (quartiles {q1:.6g}/{q3:.6g}, spread {q3 - q1:.3g})"
            f" -> change median {mc:.6g}; change won {won} of {len(pairs)}"
            f"{'; gain' if gain else ''}"
        )
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, required=True, help="seed range A-B, one pair per seed")
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    better = {
        m["name"]: m["better"]
        for m in json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    }
    sides = {"parent": args.parent, "change": args.change}
    pairs, good, probes = [], True, []
    for j, seed in enumerate(args.seeds):
        order = ["parent", "change"] if j % 2 == 0 else ["change", "parent"]
        probes.append(two_thread_probe())
        print(f"seed {seed}: two-thread probe {probes[-1]:.2f}", flush=True)
        runs = {side: run_once(sides[side], args.workload, seed, args.seconds) for side in order}
        for side, run in runs.items():
            if not run["ok"]:
                good = False
                print(f"seed {seed}: {side} run not correct: {run['stderr']}")
        if runs["parent"]["digests"] != runs["change"]["digests"] or not runs["parent"]["digests"]:
            good = False
            print(f"seed {seed}: records sha256 differ: parent {runs['parent']['digests']}, "
                  f"change {runs['change']['digests']}")
        print(f"seed {seed} ({order[0]} first): "
              + ", ".join(f"{k} {runs['parent']['metrics'].get(k, float('nan')):.6g} -> "
                          f"{runs['change']['metrics'].get(k, float('nan')):.6g}"
                          for k in runs["change"]["metrics"]), flush=True)
        if runs["parent"]["ok"] and runs["change"]["ok"]:
            pairs.append((runs["parent"], runs["change"]))
    if pairs:
        print("\n".join(summarize(pairs, better)))
    print(f"two-thread probe: median {statistics.median(probes):.2f} over {len(probes)} pairs"
          " (2.0 with a free second CPU, 1.0 without)")
    return 0 if good and pairs else 1


if __name__ == "__main__":
    sys.exit(main())
