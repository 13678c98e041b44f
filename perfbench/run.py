#!/usr/bin/env python3
"""apsflow benchmark: one workload, one process, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload transport-zoo --seed 0 --seconds 60 --trace 0

Each pass runs the workload's full per-family cross-check on every family,
one family after the other; whole passes repeat while the next one, at the
mean pass time so far, ends within ``--seconds`` (at least one pass always
runs).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

import os
import sys
import time

_STARTED = time.perf_counter()

# BLAS must be pinned to one thread before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 7  # fresh child processes, each timed the same way
EXPECTED_PATH = BENCH_DIR / "expected.json"
SPANS_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402

try:
    import apsflow  # noqa: E402
    from apsflow import reporting  # noqa: E402
    from apsflow.errors import ApsflowError  # noqa: E402
except ImportError as exc:
    sys.stderr.write(f"perfbench: cannot import apsflow from {ROOT / 'src'}: {exc}\n")
    sys.exit(2)
if not Path(apsflow.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.stderr.write(f"perfbench: apsflow comes from {apsflow.__file__}, not {ROOT / 'src'}\n")
    sys.exit(2)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--limit", type=int, default=None,
        help="use only the first N families of each pass (smoke tests)",
    )
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.limit is not None and args.limit < 1:
        p.error("--limit must be at least 1")
    return args


def environment(seed: int) -> dict:
    """Machine, interpreter, numpy and BLAS build, BLAS threads, seed."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def load_expected(workload: str, seed: int, limit: int | None):
    """Integers recorded at the seed commit for this workload and seed, or None."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        rows = json.load(fh).get(workload, {}).get(str(seed))
    return rows if rows is None or limit is None else rows[:limit]


class Pass:
    """Outcome of one pass over the workload's families."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.wall = 0.0


def serve(wl, case) -> tuple[str, object]:
    """The timed unit: one family's cross-check and its serialized records."""
    records, result = wl.work(case)
    return reporting.canonical_json(records), result


def run_pass(wl, cases, expected, serve_fn=serve) -> Pass:
    """Cross-check every family in turn."""
    out = Pass()
    started = time.perf_counter()
    for i, case in enumerate(cases):
        t0 = time.perf_counter()
        try:
            text, result = serve_fn(wl, case)
            error = None
        except ApsflowError as exc:
            error = f"{type(exc).__name__}: {exc}"
        out.latencies.append(time.perf_counter() - t0)
        label = case.family.label
        if error is not None:
            out.failures.append(f"{label}: {error}")
            continue
        out.digest.update(text.encode("utf-8"))
        ints, problems = wl.check(case, result)
        if expected is not None:
            if len(expected) != len(cases):
                problems.append(
                    f"the pass has {len(cases)} families, the seed-commit record {len(expected)}"
                )
            elif ints != expected[i]:
                problems.append(
                    f"integers {ints} differ from the seed-commit record {expected[i]}"
                )
        if problems:
            out.failures.append(f"{label}: " + "; ".join(problems))
    out.wall = time.perf_counter() - started
    return out


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_samples(args) -> list[float]:
    """Set-up time (imports, family construction, gating) of fresh child processes.

    Each child times itself from its first statement to the end of
    ``build``; this process's own start-up also parses files and asks
    numpy for its build, so it is not one of the samples.
    """
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    if args.limit is not None:
        cmd += ["--limit", str(args.limit)]
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def next_pass_fits(started: float, done: int, seconds: float) -> bool:
    """Whether one more pass, at the mean pass time so far, ends within ``seconds``."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def measure(wl, cases, expected, seconds: float) -> list[Pass]:
    """Closed loop over the families in whole passes, at least one.

    Whole passes keep the family mix behind every percentile the same from
    run to run; a pass cut short would shift p50 and p90 across the gaps
    between family sizes.
    """
    started = time.perf_counter()
    passes = [run_pass(wl, cases, expected)]
    while next_pass_fits(started, len(passes), seconds):
        passes.append(run_pass(wl, cases, expected))
    return passes


def measure_traced(wl, cases, expected, seconds: float, tracer):
    """Alternate untraced and traced whole passes, at least one of each.

    Returns the untraced passes, the traced passes and the spans and counts
    of each traced pass.
    """

    def traced_serve(wl, case):
        return tracer.span("family", serve, wl, case)

    untraced, traced, layers = [], [], []
    started = time.perf_counter()
    while not traced or next_pass_fits(started, len(untraced) + len(traced), seconds):
        if len(untraced) == len(traced):
            untraced.append(run_pass(wl, cases, expected))
            continue
        restore = tracing.install(tracer)
        try:
            traced.append(run_pass(wl, cases, expected, serve_fn=traced_serve))
        finally:
            restore()
        layers.append(tracer.take())
    return untraced, traced, layers


def report(correct, attempted, failed, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def summarize_correctness(passes: list[Pass], expected, seed: int) -> tuple[bool, int, int]:
    """Print every failure and the records digest; returns (correct, attempted, failed)."""
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for p in passes:
        for line in p.failures:
            print(f"FAILED {line}")
    digests = sorted({p.digest.hexdigest() for p in passes})
    print(f"records sha256 {' '.join(digests)} (over each pass; "
          f"{'identical' if len(digests) == 1 else 'DIFFERENT'} across passes)")
    if expected is None:
        print(f"seed-commit integers: not recorded for seed {seed}; checked against "
              "the endpoint difference and across routes only")
    else:
        print(f"seed-commit integers: compared for seed {seed}")
    return failed == 0, attempted, failed


def end_to_end(args, wl, expected, units) -> None:
    cases = wl.build(args.seed, args.limit)
    setup = setup_samples(args)
    run_pass(wl, cases[:1], None)  # warm-up: lazy numpy and BLAS set-up
    passes = measure(wl, cases, expected, args.seconds)
    correct, attempted, failed = summarize_correctness(passes, expected, args.seed)
    latencies = [x for p in passes for x in p.latencies]
    p90 = nearest_rank(latencies, 0.9)
    beyond = sum(1 for x in latencies if x > p90)
    print(f"latency samples {len(latencies)} ({beyond} beyond p90) over {len(passes)} passes; "
          f"setup samples {[round(s, 4) for s in setup]}")
    metrics = {
        "setup_s": statistics.median(setup),
        "families_per_s": len(latencies) / sum(latencies),
        "family_ms_p50": 1e3 * statistics.median(latencies),
        "family_ms_p90": 1e3 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_share": 1.0 - failed / attempted,
    }
    report(correct, attempted, failed, metrics, units)


def layer_metrics(spans, counts) -> dict:
    """The per-layer metrics of one traced pass."""
    duration, self_time, calls = tracing.layer_totals(spans)
    return {
        "families.at.calls": calls["families.at"],
        "families.at.self_s": self_time["families.at"],
        "matrixcore.eigh.calls": calls["matrixcore.eigh"],
        "matrixcore.eigh.self_s": self_time["matrixcore.eigh"],
        "matrixcore.rank_kernel.self_s": self_time["matrixcore.rank_kernel"],
        "matrixcore.rank_kernel.cells": counts["matrixcore.rank_kernel.cells"],
        "evolution.propagate.self_s": self_time["evolution.propagate"],
        "evolution.propagate.substeps": counts["evolution.propagate.substeps"],
        "evolution.propagate.flop_computed": counts["evolution.propagate.flop_computed"],
        "evolution.nonunitary_propagate.self_s": self_time["evolution.nonunitary_propagate"],
        "spectralflow.spectral_flow.calls": calls["spectralflow.spectral_flow"],
        "spectralflow.spectral_flow.self_s": self_time["spectralflow.spectral_flow"],
        "spectralflow.flowind_check.self_s": self_time["spectralflow.flowind_check"],
        "spectralflow.partition_segments": counts["spectralflow.partition_segments"],
        "apsindex.lorentzian_main_check.self_s": self_time["apsindex.lorentzian_main_check"],
        "apsindex.transport_routes.self_s": self_time["apsindex.transport_routes"],
        "apsindex.riemannian_index_discretized.self_s":
            self_time["apsindex.riemannian_index_discretized"],
        "apsindex.riemannian_kernel_shooting.self_s":
            self_time["apsindex.riemannian_kernel_shooting"],
        "reporting.canonical_json.s": duration["reporting.canonical_json"],
        "reporting.report_bytes": counts["reporting.report_bytes"],
        "trace.spans": len(spans),
    }


def per_layer(args, wl, expected, units) -> None:
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        cases = tracer.span("families.build", wl.build, args.seed, args.limit)
    finally:
        restore()
    build_spans, _ = tracer.take()
    run_pass(wl, cases[:1], None)  # warm-up, as in the untraced run
    untraced, traced, layers = measure_traced(wl, cases, expected, args.seconds, tracer)
    correct, attempted, failed = summarize_correctness(untraced + traced, expected, args.seed)

    per_pass = [layer_metrics(spans, counts) for spans, counts in layers]
    # median_low: with two traced passes, report one of them, not their mean
    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["families.build.s"] = next(
        end - start for _, _, name, start, end in build_spans if name == "families.build"
    )
    untraced_s = statistics.median(p.wall for p in untraced)
    metrics["trace.pass_s"] = untraced_s
    metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - untraced_s
    path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracing.write_spans(path, [(0, build_spans)] + [
        (i + 1, spans) for i, (spans, _) in enumerate(layers)
    ])
    print(f"spans written to {path.relative_to(ROOT)} (pass 0 is set-up); "
          f"{len(traced)} traced and {len(untraced)} untraced passes")
    report(correct, attempted, failed, metrics, units)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.setup_only:
        wl.build(args.seed, args.limit)
        print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    expected = load_expected(args.workload, args.seed, args.limit)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    (per_layer if args.trace else end_to_end)(args, wl, expected, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
