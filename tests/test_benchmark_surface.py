"""The apsflow names that the benchmark in ``perfbench/`` binds.

``perfbench/tracing.py`` wraps each counted layer function by its module
attribute name and reads some arguments by parameter name: ``propagate``'s
``family``, ``intervals``, ``steps`` and ``scheme``, and ``rank_kernel``'s
``m``.  Renaming or deleting any of them breaks every traced benchmark run
although no other test notices, so one tiny call goes through each counted
wrapper here.

The benchmark also gates on the integers each workload returns, recorded in
``perfbench/expected.json``; one seed of the boundary-value workload is
checked against that record here, so a route change that flips one of its
integers fails in this suite too.
"""

import json
from pathlib import Path

import numpy as np

from apsflow import apsindex, evolution, matrixcore, reporting, spectralflow
from apsflow.families import linear_family
from apsflow.matrixcore import HermitianMatrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_layers_record_their_counters(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    originals = (evolution.propagate, matrixcore.rank_kernel, spectralflow.spectral_flow)
    family = linear_family(HermitianMatrix(np.diag([-0.5, 1.0])), HermitianMatrix(np.eye(2)), 1.0)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        evolution.propagate(family, 8)
        matrixcore.rank_kernel(np.eye(2))
        spectralflow.spectral_flow(family)
        reporting.canonical_json({})
    finally:
        restore()
    _, counts = tracer.take()

    assert counts["evolution.propagate.substeps"] == 8
    assert counts["evolution.propagate.flop_computed"] == 8 * 2**3
    assert counts["matrixcore.rank_kernel.cells"] == 4
    assert counts["spectralflow.partition_segments"] >= 1
    assert counts["reporting.report_bytes"] == len("{}\n")
    assert (evolution.propagate, matrixcore.rank_kernel, spectralflow.spectral_flow) == originals


def test_traced_shooting_records_both_propagations(monkeypatch):
    # the per-layer metric attributes shooting's time to its one non-unitary propagation,
    # which multiplies the forward and the time-reversed chain in one loop
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    family = linear_family(HermitianMatrix(np.diag([-0.5, 1.0])), HermitianMatrix(np.eye(2)), 1.0)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        apsindex.riemannian_kernel_shooting(family)
    finally:
        restore()
    spans, _ = tracer.take()
    names = [span[2] for span in spans]
    assert names.count("evolution.nonunitary_propagate") == 1
    assert names.count("apsindex.riemannian_kernel_shooting") == 1


def test_bvp_grid_integers_match_the_benchmark_record(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    wl = workloads.BvpGrid
    got = []
    for case in wl.build(0, None):
        _, out = wl.work(case)
        ints, problems = wl.check(case, out)
        assert problems == [], (case.family.label, problems)
        got.append(ints)
    assert got == expected["bvp-grid"]["0"]
