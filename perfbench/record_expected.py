#!/usr/bin/env python3
"""Record the integers each workload produces, for the benchmark's correctness gate.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record_expected.py --seeds 0-19

It rewrites ``perfbench/expected.json``: for each workload and seed, the
list of integers ``check`` extracts from each family, in pass order.
Recording fails if any family fails its own checks.
"""

import argparse
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def record(wl, seed: int) -> list[list[int]]:
    rows = []
    for case in wl.build(seed, None):
        _, result = wl.work(case)
        ints, problems = wl.check(case, result)
        if problems:
            raise SystemExit(f"{wl.name} seed {seed} {case.family.label}: {problems}")
        rows.append(ints)
    return rows


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-19", help="inclusive range such as 0-19")
    p.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    path = BENCH_DIR / "expected.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        table[name] = {str(s): record(wl, s) for s in range(lo, hi + 1)}
        print(f"recorded {name}", flush=True)
    lines = []
    for name in sorted(table):
        rows = ",\n".join(
            f"    {json.dumps(seed)}: {json.dumps(ints, separators=(',', ':'))}"
            for seed, ints in table[name].items()
        )
        lines.append(f"  {json.dumps(name)}: {{\n{rows}\n  }}")
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
