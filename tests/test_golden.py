"""Byte-for-byte guard on the reports and exports of the shipped configs.

``tests/golden/<config>/`` holds the ``report.json`` and CSV files that
``apsflow run --config configs/<config>.json --format json --format csv``
wrote before the transport hot path was batched.  The echoed output path is
stored as ``"<out>"``.  Any change that moves a reported integer, float or
warning by a single byte fails here; a deliberate change of the report
format re-records these files and says so.

Recorded on an x86_64 Intel Xeon (2 cores) with Python 3.11.7, numpy 2.4.6
and scipy-openblas 0.3.31 (DYNAMIC_ARCH, Haswell kernels).  Another BLAS
build or CPU may round the last digit of a float differently; the integers
must still agree.

``tests/golden/exports/`` holds the three ``apsflow export`` outputs of
``configs/scalar-crossing.json`` (``eigenflow``, ``operator`` and
``propagator --steps 64``), recorded before the propagators' integrator
loop was shared.

``tests/golden/suites/`` holds the reports of ``apsflow suite theorems
--seed 0`` and ``apsflow suite convergence --seed 0``, recorded with one
BLAS thread before ``OperatorFamily.time_reversed`` and the restriction of
a family (now ``conftest.restricted``) were rebuilt on
``dataclasses.replace``.  They guard the checkpoint flows and the shooting
route across the shipped families.  ``suite random --families 8
--seed 0`` and ``suite counterexample --max-blocks 4 --seed 0`` were
recorded the same way before the spectral cuts were reduced to the two
half-lines; the random section is the only one that sends zoo draws of
dimension up to 16 through the subspace-geometry route.  BLAS sums in a
different order with more threads, which moves the last digits of some
boundary-value singular values of the theorems suite (and, by far more, a
gap ratio over a round-off-sized one), so the suites run in a child process
pinned to one thread.

``BVP_GRID_SHA256`` is the SHA-256 of one pass of the benchmark's
``bvp-grid`` workload at seed 0 (every family's records through
``reporting.canonical_json``, the digest ``perfbench/run.py`` prints),
recorded with one BLAS thread before shooting multiplied its two chains in
one loop and the Cayley steps took their ``Q`` from the QR gufuncs.  It
guards every boundary-value float of the singular-endpoint draws and of the
grids 32 and 64, which no suite report reaches.  ``TRANSPORT_ZOO_SHA256`` is
the same digest of one seed-0 pass of the ``transport-zoo`` workload,
recorded with one BLAS thread before the transport main check took its
checkpoint flows from one partition of ``[0, T]`` instead of one per
checkpoint window; it guards the flow partitions, checkpoint records and
transport routes of 40 zoo draws up to n = 16.  Each runs two passes over
the same family objects, as the benchmark does, and both must give the
recorded digest: the second pass reads the endpoint decompositions,
boundary splits and flow partitions the first one kept on each family.

``scalar-crossing/report.json``, ``scalar-crossing/singular_values.csv`` and
``suites/suite-theorems.json`` were re-recorded once, with one BLAS thread,
when the boundary-value route was compactified: only the diagnostics of the
``discretized-bvp`` reports and the CSV values (now the principal cosines of
the boundary restriction) moved; no integer, flag or warning did.

``scalar-crossing/report.json`` and ``suites/suite-theorems.json`` were
re-recorded a second time, with one BLAS thread, when
``nonunitary_propagate`` stopped taking an SVD of every partial product:
the shooting diagnostics ``forward_condition_max`` and
``backward_condition_max`` became ``forward_condition`` and
``backward_condition``, the condition numbers of ``R(T, 0)``.
``python tools/leafdiff.py OLD NEW --rename forward_condition_max=forward_condition
--rename backward_condition_max=backward_condition`` shows no other
difference than two of those values in the theorems suite, where the
maximum over the grid lay inside the interval (``theorems[4]`` backward
5.9638 -> 4.4817, ``theorems[30]`` forward 1.80692 -> 1.80247); no key,
integer, flag, string, cosine or other float moved.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from apsflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = ("constant-split", "scalar-crossing", "counterexample-growth")


@pytest.mark.parametrize("name", CONFIGS)
def test_shipped_config_reports_match_golden(tmp_path, name):
    out = tmp_path / name
    result = CliRunner().invoke(
        main,
        [
            "run",
            "--config",
            str(ROOT / "configs" / f"{name}.json"),
            "--format",
            "json",
            "--format",
            "csv",
            "--out",
            str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for filename in expected:
        got = (out / filename).read_bytes()
        if filename == "report.json":
            got = got.replace(json.dumps(str(out)).encode(), b'"<out>"')
        assert got == (GOLDEN / name / filename).read_bytes(), filename


EXPORTS = {
    "eigenflow": ([], "eigenflow.csv"),
    "operator": ([], "operator.txt"),
    "propagator": (["--steps", "64"], "propagator.json"),
}


@pytest.mark.parametrize("what", sorted(EXPORTS))
def test_scalar_crossing_exports_match_golden(tmp_path, what):
    options, filename = EXPORTS[what]
    result = CliRunner().invoke(
        main,
        [
            "export",
            what,
            "--config",
            str(ROOT / "configs" / "scalar-crossing.json"),
            "--out",
            str(tmp_path),
            *options,
        ],
    )
    assert result.exit_code == 0, result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == [filename]
    expected = (GOLDEN / "exports" / filename).read_bytes()
    assert (tmp_path / filename).read_bytes() == expected


def _one_thread_env():
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


BVP_GRID_SHA256 = "c636ce8a5ef4ece27fd6b83b81c7f36de9bc13ea2dc02a6fe363ed33bb98bdc8"
TRANSPORT_ZOO_SHA256 = "467a302a594a31119baa0a4d17dd8ba46e8e962e3aa1d728417df886bc5a9c05"
WORKLOAD_PASS = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
from apsflow import reporting
workload = WORKLOADS[sys.argv[2]]
cases = workload.build(0, None)
for _ in range(2):
    digest = hashlib.sha256()
    for case in cases:
        records, _ = workload.work(case)
        digest.update(reporting.canonical_json(records).encode("utf-8"))
    print(digest.hexdigest())
"""


def _seed_zero_pass_digests(workload):
    """The digests of two passes over the same cases: the second reads what the first kept."""
    result = subprocess.run(
        [sys.executable, "-c", WORKLOAD_PASS, str(ROOT / "perfbench"), workload],
        env=_one_thread_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_bvp_grid_pass_bytes_match_golden():
    assert _seed_zero_pass_digests("bvp-grid") == [BVP_GRID_SHA256] * 2


def test_transport_zoo_pass_bytes_match_golden():
    assert _seed_zero_pass_digests("transport-zoo") == [TRANSPORT_ZOO_SHA256] * 2


SUITES = {
    "theorems": [],
    "convergence": [],
    "random": ["--families", "8"],
    "counterexample": ["--max-blocks", "4"],
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_reports_match_golden(tmp_path, name):
    result = subprocess.run(
        [sys.executable, "-m", "apsflow", "suite", name, *SUITES[name],
         "--seed", "0", "--out", str(tmp_path)],
        env=_one_thread_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    filename = f"suite-{name}.json"
    assert sorted(p.name for p in tmp_path.iterdir()) == [filename]
    expected = (GOLDEN / "suites" / filename).read_bytes()
    assert (tmp_path / filename).read_bytes() == expected
