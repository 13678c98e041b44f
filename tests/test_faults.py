"""Seeded faults: each one-line fault must fail a check other than a golden.

Every fault is applied by ``monkeypatch`` and run over one small fixed set
of families: the shipped families, 4 zoo draws, 4 singular-endpoint draws,
the hard checkpoint families and one fast family whose partition has 3
segments.  A fault no check catches fails here and is stated as a limit in
the README.
"""

import numpy as np
import pytest

from apsflow import apsindex, spectralflow
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


# name: (module, attribute, replacement)
FAULTS = {
    "checkpoint flow read at the segment start": (
        apsindex, "running_flows", _read_at_partition_point(0)
    ),
    "checkpoint flow read at the segment end": (
        apsindex, "running_flows", _read_at_partition_point(1)
    ),
}


def _main_check_failures():
    failed = []
    for f in _families():
        rec = apsindex.lorentzian_main_check(f, propagate(f, 256), raise_on_mismatch=False)
        if not rec.passed:
            failed.append(f.label)
    return failed


def test_the_fixed_set_passes_without_a_fault():
    assert _main_check_failures() == []


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_fault_fails_the_transport_main_check(monkeypatch, name):
    module, attr, replacement = FAULTS[name]
    monkeypatch.setattr(module, attr, replacement)
    assert _main_check_failures(), f"no check caught: {name}"
