"""Seeded faults: each one-line fault must fail a check other than a golden.

Every fault is applied by ``monkeypatch`` and run over one small fixed set
of families: the shipped families, 4 zoo draws, 4 singular-endpoint draws,
the hard checkpoint families and one fast family whose partition has 3
segments.  The checks are the transport main check and, at ``T``, the
agreement of the projection pair's singular values with the subspace
route's.  A fault no check catches fails here and is stated as a limit in
the README.
"""

from dataclasses import replace

import numpy as np
import pytest

from apsflow import apsindex, evolution, matrixcore, spectralflow
from apsflow.evolution import propagate
from apsflow.families import linear_family
from apsflow.matrixcore import HermitianMatrix
from apsflow.zoo import random_zoo, shipped_families, singular_endpoint_family
from conftest import HARD_CHECKPOINT_FAMILIES


def _families():
    rng = np.random.default_rng(np.random.SeedSequence(2).spawn(1)[0])
    fast = linear_family(
        HermitianMatrix(np.diag([-90.0, 60.0])), HermitianMatrix(np.diag([150.0, -80.0])), 1.0
    )
    return [
        *shipped_families(),
        *random_zoo(4, 2),
        *(singular_endpoint_family(int(rng.integers(2, 5)), rng) for _ in range(4)),
        *(make() for make in HARD_CHECKPOINT_FAMILIES.values()),
        fast,
    ]


def _read_at_partition_point(side):
    """The checkpoint readout taking each flow at ``p_n`` (side 0) or ``p_{n+1}`` (side 1).

    ``p_n < t <= p_{n+1}`` is the segment holding ``t``.  Side 0 drops the
    partial term of that segment, side 1 counts its whole term.
    """
    readout = spectralflow.running_flows

    def faulty(family, times, **kwargs):
        points = spectralflow.build_flow_partition(family, gamma_min=kwargs["gamma_min"]).points
        moved = points[np.searchsorted(points, np.asarray(times)) - 1 + side]
        flows = np.zeros(moved.size, dtype=int)
        flows[moved > 0.0] = readout(family, moved[moved > 0.0], **kwargs)
        return flows.tolist()

    return faulty


def _swapped_pair(range_p, rank_p, range_q, rank_q, **kwargs):
    """The relative index with P and Q swapped."""
    return matrixcore.ranges_relative_index(range_q, rank_q, range_p, rank_p, **kwargs)


def _conjugated_by_u(family, propagator, times, **kwargs):
    """The evolved projections ``U P U*`` in place of ``U* P U``."""
    adjoints = np.conj(propagator.unitaries).swapaxes(-1, -2)
    return evolution.evolved_projections(
        family, replace(propagator, unitaries=adjoints), times, **kwargs
    )


# name: (module, attribute, replacement)
FAULTS = {
    "checkpoint flow read at the segment start": (
        apsindex, "running_flows", _read_at_partition_point(0)
    ),
    "checkpoint flow read at the segment end": (
        apsindex, "running_flows", _read_at_partition_point(1)
    ),
    "P and Q swapped in the relative index": (
        apsindex, "ranges_relative_index", _swapped_pair
    ),
    "evolved projection conjugated by U in place of U*": (
        apsindex, "evolved_projections", _conjugated_by_u
    ),
}
# the projection pair at T and the subspace route restrict the same map:
# their singular values agree to rounding (clean gap at most 1e-13 here)
SINGULAR_VALUE_ATOL = 1e-10


def _transport_check_failures():
    """The families failing the transport main check or the singular-value check at T."""
    failed = []
    for f in _families():
        prop = propagate(f, 256)
        rec = apsindex.lorentzian_main_check(f, prop, raise_on_mismatch=False)
        pair = rec.projection_at_end.diagnostics["singular_values"]
        sub = apsindex.lorentzian_index_subspace(f, prop).diagnostics["restriction_singular_values"]
        agree = pair.shape == sub.shape and np.allclose(pair, sub, rtol=0, atol=SINGULAR_VALUE_ATOL)
        if not (rec.passed and agree):
            failed.append(f.label)
    return failed


def test_the_fixed_set_passes_without_a_fault():
    assert _transport_check_failures() == []


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_fails_the_transport_main_check(monkeypatch, name):
    module, attr, replacement = FAULTS[name]
    monkeypatch.setattr(module, attr, replacement)
    assert _transport_check_failures(), f"no check caught: {name}"
