"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or the default quiet
mode; the summary lines print either way).  The random zoo and its
propagators are shared across criteria through module-scoped fixtures, and
the construction/propagation costs are charged against the runtime budgets
of the criteria that own them.
"""

import time

import numpy as np
import pytest

from apsflow.apsindex import (
    lorentzian_index_projection,
    lorentzian_index_subspace,
    lorentzian_main_check,
    riemannian_index_discretized,
    riemannian_kernel_shooting,
    riemannian_main_check,
)
from apsflow.cli import RIEMANNIAN_NORM_CAP
from apsflow.evolution import (
    SCHEME_CF4,
    closed_form_counterexample_propagator,
    convergence_study,
    propagate,
)
from apsflow.families import counterexample_family, endpoint_regularize
from apsflow.spectralflow import flowind_check, spectral_flow
from apsflow.zoo import random_zoo, shipped_families, singular_endpoint_family
from conftest import (
    cauchy_residual,
    cauchy_solve,
    conjugation_flows,
    evolved_family,
    q_between,
)

ACCEPT_SEED = 20240521
ZOO_COUNT = 100
TRANSPORT_STEPS = 2**10
ORACLE_STEPS = 2**12
ORACLE_TOL = 1e-6

_timings: dict[str, float] = {}


def _criterion(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    assert passed, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def zoo():
    started = time.perf_counter()
    families = random_zoo(ZOO_COUNT, ACCEPT_SEED)
    _timings["zoo_build"] = time.perf_counter() - started
    return families


@pytest.fixture(scope="module")
def transported_zoo(zoo):
    started = time.perf_counter()
    pairs = [(f, propagate(f, TRANSPORT_STEPS)) for f in zoo]
    _timings["zoo_propagation"] = time.perf_counter() - started
    return pairs


@pytest.fixture(scope="module")
def transported_shipped():
    return [(f, propagate(f, TRANSPORT_STEPS)) for f in shipped_families()]


def test_criterion_1_flow_equals_endpoint_index(zoo):
    started = time.perf_counter()
    failures = [f.label for f in zoo if not flowind_check(f).passed]
    elapsed = _timings["zoo_build"] + (time.perf_counter() - started)
    _criterion(
        1,
        "spectral flow equals endpoint pair index on the random zoo",
        not failures and elapsed < 60.0,
        f"{len(zoo)} families, {elapsed:.1f}s, failures {failures}",
    )


def test_criterion_2_transport_index_equals_flow(transported_zoo, transported_shipped):
    started = time.perf_counter()
    failures = []
    for family, prop in transported_zoo + transported_shipped:
        if not lorentzian_main_check(family, prop).passed:
            failures.append(family.label)
    elapsed = (
        _timings["zoo_build"]
        + _timings["zoo_propagation"]
        + (time.perf_counter() - started)
    )
    _criterion(
        2,
        "transport index equals flow at 8 checkpoints",
        not failures and elapsed < 120.0,
        f"{len(transported_zoo) + len(transported_shipped)} families at "
        f"{TRANSPORT_STEPS} steps, {elapsed:.1f}s, failures {failures}",
    )


def test_criterion_3_cross_method_agreement(transported_zoo, transported_shipped):
    disagreements = []
    for family, prop in transported_zoo + transported_shipped:
        a = lorentzian_index_projection(family, prop)
        b = lorentzian_index_subspace(family, prop)
        if (a.ker_dim, a.coker_dim, a.index) != (b.ker_dim, b.coker_dim, b.index):
            disagreements.append(family.label)
    _criterion(
        3,
        "projection-pair and subspace-geometry routes agree",
        not disagreements,
        f"disagreements {disagreements}",
    )


def test_criterion_4_counterexample_growth():
    growth_ok = True
    details = []
    for m in (1, 2, 4, 8, 16):
        family = counterexample_family(np.arange(1.0, m + 1.0))
        prop = propagate(family, ORACLE_STEPS, scheme=SCHEME_CF4)
        proj = lorentzian_index_projection(family, prop)
        sub = lorentzian_index_subspace(family, prop)
        sfl = spectral_flow(family).value
        ok = (
            proj.ker_dim == proj.coker_dim == m
            and sub.ker_dim == sub.coker_dim == m
            and proj.index == sub.index == 0
            and sfl == 0
        )
        growth_ok = growth_ok and ok
        details.append(f"m={m}:{'ok' if ok else 'BAD'}")

    # step-refinement study validating the oracle tolerance on the largest
    # family: fourth-order decay toward the closed form, already below the
    # tolerance at every tested resolution
    family = counterexample_family(np.arange(1.0, 17.0))
    exact = closed_form_counterexample_propagator(np.arange(1.0, 17.0), 1.0)
    deviations = []
    for steps in (ORACLE_STEPS // 4, ORACLE_STEPS // 2, ORACLE_STEPS):
        prop = propagate(family, steps, scheme=SCHEME_CF4)
        deviations.append(float(np.linalg.norm(prop.unitaries[-1] - exact, 2)))
    refinement_ok = (
        deviations[-1] <= ORACLE_TOL
        and deviations[0] <= ORACLE_TOL
        and deviations[0] > deviations[1] > deviations[2]
        and deviations[0] / deviations[1] > 4.0
        and deviations[1] / deviations[2] > 4.0
    )
    _criterion(
        4,
        "counterexample kernel growth with zero index and flow",
        growth_ok and refinement_ok,
        f"{' '.join(details)}; closed-form deviations {deviations}",
    )


def test_criterion_5_propagator_structure(transported_zoo, zoo):
    unitarity = max(prop.unitarity_defect() for _, prop in transported_zoo)
    eye_defect = 0.0
    cocycle = 0.0
    isometry = 0.0
    rng = np.random.default_rng(ACCEPT_SEED)
    for family, prop in transported_zoo[::7]:
        ts = prop.grid[[0, 128, 512, 1024]]
        for t in ts:
            for s in ts:
                for r in ts:
                    lhs = q_between(prop, t, s) @ q_between(prop, s, r)
                    cocycle = max(
                        cocycle, float(np.max(np.abs(lhs - q_between(prop, t, r))))
                    )
        x = rng.standard_normal(family.dim) + 1j * rng.standard_normal(family.dim)
        for k in (1, 512, 1024):
            isometry = max(
                isometry,
                abs(
                    float(np.linalg.norm(prop.unitaries[k] @ x))
                    - float(np.linalg.norm(x))
                ),
            )
    ratios_ok = True
    ratio_log = []
    for family in zoo[:3]:
        study = convergence_study(family)
        ratio_log.append([round(r, 2) for r in study.ratios])
        ratios_ok = ratios_ok and all(3.5 <= r <= 4.5 for r in study.ratios)
    _criterion(
        5,
        "propagator unitarity, cocycle, isometry, and order",
        unitarity <= 1e-10 and cocycle <= 1e-9 and isometry <= 1e-10 and ratios_ok,
        f"unitarity {unitarity:.2e}, cocycle {cocycle:.2e}, isometry "
        f"{isometry:.2e}, midpoint ratios {ratio_log}",
    )


def test_criterion_6_boundary_value_index(zoo):
    eligible = [f for f in zoo if f.norm_bound() * f.horizon <= RIEMANNIAN_NORM_CAP]
    failures = [f.label for f in eligible if not riemannian_main_check(f, 32).passed]

    stability_failures = []
    for family in shipped_families():
        if family.norm_bound() * family.horizon > 32:
            continue  # the Cayley route's own precondition on its coarsest grid
        dims = [
            (r.ker_dim, r.coker_dim)
            for r in (riemannian_index_discretized(family, m) for m in (32, 64, 128))
        ]
        if not dims[0] == dims[1] == dims[2]:
            stability_failures.append((family.label, dims))

    shooting_failures = []
    probes = [
        f for f in shipped_families() if f.norm_bound() * f.horizon <= RIEMANNIAN_NORM_CAP
    ]
    probes += eligible[::3]
    for family in probes:
        shoot = riemannian_kernel_shooting(family)
        disc = riemannian_index_discretized(family, 32)
        if shoot.ker_dim != disc.ker_dim:
            shooting_failures.append(family.label)
    _criterion(
        6,
        "boundary-value index equals flow with stable grid dims",
        not failures and not stability_failures and not shooting_failures,
        f"{len(eligible)} zoo families, main failures {failures}, "
        f"grid instabilities {stability_failures}, shooting mismatches "
        f"{shooting_failures}",
    )


def test_criterion_7_endpoint_regularization():
    rng = np.random.default_rng(ACCEPT_SEED + 7)
    failures = []
    for j in range(20):
        family = singular_endpoint_family(int(rng.integers(2, 5)), rng)
        regular = endpoint_regularize(family)
        flow_raw = spectral_flow(family).value
        flow_reg = spectral_flow(regular).value
        idx_raw = riemannian_index_discretized(family, 48).index
        idx_reg = riemannian_index_discretized(regular, 48).index
        if not (flow_raw == flow_reg and idx_raw == idx_reg):
            failures.append((family.label, flow_raw, flow_reg, idx_raw, idx_reg))
    _criterion(
        7,
        "endpoint regularization preserves flow and index",
        not failures,
        f"20 singular-endpoint families, failures {failures}",
    )


def test_criterion_8_conjugation_invariance(transported_zoo):
    failures = []
    worst_dev = 0.0
    for family, prop in transported_zoo:
        flow, flow_evolved, deviation = conjugation_flows(family, evolved_family(family, prop))
        worst_dev = max(worst_dev, deviation)
        if not (flow == flow_evolved and deviation <= 1e-10):
            failures.append(family.label)
    _criterion(
        8,
        "evolved family keeps the flow and the pointwise spectra",
        not failures,
        f"max spectrum deviation {worst_dev:.2e}, failures {failures}",
    )


def test_criterion_9_cauchy_well_posedness():
    probes = random_zoo(10, ACCEPT_SEED + 9, sizes=(2, 3, 4))
    ratio_failures = []
    transport_defect = 0.0
    rng = np.random.default_rng(ACCEPT_SEED + 9)
    for family in probes:
        n = family.dim
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        freq = float(rng.uniform(0.5, 2.0))

        def source(t):
            return np.cos(freq * t) * np.ones(n) + 1j * np.sin(t) * np.arange(n)

        residuals = []
        for intervals in (64, 128, 256):
            prop = propagate(family, intervals)
            values = cauchy_solve(prop, 0.0, x, source)
            residuals.append(cauchy_residual(family, prop.grid, values, source))
        r1 = residuals[0] / residuals[1]
        r2 = residuals[1] / residuals[2]
        if not (2.8 <= r1 <= 5.2 and 2.8 <= r2 <= 5.2):
            ratio_failures.append((family.label, round(r1, 2), round(r2, 2)))

        prop = propagate(family, 128)
        values = cauchy_solve(prop, 0.5, x)
        for t in (0.0, 0.25, 1.0):
            k = prop.index_of(t)
            expected = q_between(prop, t, 0.5) @ x
            transport_defect = max(
                transport_defect, float(np.max(np.abs(values[k] - expected)))
            )
    _criterion(
        9,
        "source problem converges at second order and matches transport",
        not ratio_failures and transport_defect <= 1e-9,
        f"ratio failures {ratio_failures}, transport defect {transport_defect:.2e}",
    )
