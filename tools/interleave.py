"""Time two checkouts family by family in one process, alternating their ``work``.

Usage::

    python tools/interleave.py A B --workload W --seed N --rounds R [--fresh] [--limit L]

``A`` and ``B`` are two checkouts, for example ``git archive`` copies of a
parent commit and a change.  Both ``src/apsflow`` packages are loaded into
this one process under two names, and each side's cases are built by that
side's ``perfbench/workloads.py`` (read, never changed) against its own
package.  Every round runs each family's ``work`` (and the canonical JSON of
its records, as a benchmark pass does) once on each side, one right after
the other; A goes first in even rounds and B in odd ones.  Before the
first round each side serves its first family once, untimed.  The records of
the two sides must be byte-equal for every family in every round.

Cases are built once and reused (warm: each family keeps what it computed
once, as in a benchmark pass); ``--fresh`` builds both sides' cases again
before every round, outside the timed region, as one ``apsflow run`` sees
them.  BLAS runs on one thread.

It prints each family's fastest time on each side and their ratio B / A,
then the ratios' median, minimum and maximum and each side's nearest-rank
p50 and p90 over the fastest per-family times.  The exit status is 0 when
every record was byte-equal and 1 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def load_package(checkout: Path, name: str):
    """``checkout/src/apsflow`` imported as the package ``name``, with its submodules."""
    src = checkout / "src" / "apsflow"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(src.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"{name}.{path.stem}")
    return package


@contextlib.contextmanager
def as_apsflow(name: str):
    """``import apsflow`` (and its submodules) gives the package ``name`` while inside."""
    saved = {k: v for k, v in sys.modules.items() if k == "apsflow" or k.startswith("apsflow.")}
    for k in saved:
        del sys.modules[k]
    for k, module in list(sys.modules.items()):
        if k == name or k.startswith(name + "."):
            sys.modules["apsflow" + k[len(name):]] = module
    try:
        yield
    finally:
        for k in [k for k in sys.modules if k == "apsflow" or k.startswith("apsflow.")]:
            del sys.modules[k]
        sys.modules.update(saved)


class Side:
    """One checkout: its package, its workload and its canonical JSON."""

    def __init__(self, checkout: Path, name: str, workload: str):
        self.package = load_package(checkout, name)
        self.canonical_json = self.package.reporting.canonical_json
        with as_apsflow(name):
            spec = importlib.util.spec_from_file_location(
                f"{name}_workloads", checkout / "perfbench" / "workloads.py"
            )
            module = importlib.util.module_from_spec(spec)
            sys.modules[spec.name] = module
            spec.loader.exec_module(module)
        self.workload = module.WORKLOADS[workload]

    def build(self, seed: int, limit: int | None) -> list:
        return self.workload.build(seed, limit)

    def serve(self, case) -> tuple[float, str]:
        """One family's ``work`` and the canonical JSON of its records, and the time both took."""
        started = time.perf_counter()
        records, _ = self.workload.work(case)
        text = self.canonical_json(records)
        return time.perf_counter() - started, text


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", type=Path, help="first checkout, for example the parent commit")
    p.add_argument("b", type=Path, help="second checkout, for example the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--fresh", action="store_true", help="build the cases again before every round")
    p.add_argument("--limit", type=int, default=None, help="use only the first N families")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    sides = [Side(args.a.resolve(), "apsflow_a", args.workload),
             Side(args.b.resolve(), "apsflow_b", args.workload)]
    cases = [side.build(args.seed, args.limit) for side in sides]
    if len(cases[0]) != len(cases[1]):
        print(f"A builds {len(cases[0])} families, B {len(cases[1])}")
        return 1
    labels = [case.family.label for case in cases[0]]
    for side, built in zip(sides, cases):
        side.serve(built[0])  # warm-up: lazy numpy and BLAS set-up, as a benchmark run does
    best = [[math.inf] * len(labels) for _ in sides]
    differ = 0
    for r in range(args.rounds):
        if args.fresh and r:
            cases = [side.build(args.seed, args.limit) for side in sides]
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for i, label in enumerate(labels):
            texts = [None, None]
            for s in order:
                elapsed, texts[s] = sides[s].serve(cases[s][i])
                best[s][i] = min(best[s][i], elapsed)
            if texts[0] != texts[1]:
                differ += 1
                print(f"round {r}: {label}: records differ")
    for i, label in enumerate(labels):
        print(f"{label}: A {1e3 * best[0][i]:.3f} ms, B {1e3 * best[1][i]:.3f} ms, "
              f"B/A {best[1][i] / best[0][i]:.3f}")
    ratios = [b / a for a, b in zip(*best)]
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds "
          f"({'fresh' if args.fresh else 'warm'}), {len(labels)} families: B/A per family "
          f"median {statistics.median(ratios):.3f}, min {min(ratios):.3f}, max {max(ratios):.3f}")
    for name, times in zip("AB", best):
        print(f"{name}: p50 {1e3 * nearest_rank(times, 0.5):.3f} ms, "
              f"p90 {1e3 * nearest_rank(times, 0.9):.3f} ms")
    if differ:
        print(f"{differ} family records differ between A and B")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
