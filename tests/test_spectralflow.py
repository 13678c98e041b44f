import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from apsflow import spectralflow
from apsflow.errors import ConsistencyError
from apsflow.families import (
    constant_family,
    counterexample_family,
    diagonal_path_family,
    linear_family,
    sampled_family,
    swap_block_family,
)
from apsflow.matrixcore import TAU_ZERO, HermitianMatrix, snap_eigenvalues
from apsflow.spectralflow import (
    CROSSING_SAMPLES,
    CrossingEvent,
    _candidate_level,
    _crossing_log,
    build_flow_partition,
    crossing_log_to_csv,
    flowind_check,
    running_flows,
    spectral_flow,
)
from apsflow.zoo import random_trig_family, random_zoo, shipped_families, singular_endpoint_family
from conftest import (
    HARD_CHECKPOINT_FAMILIES,
    conjugation_flows,
    diag_at,
    flow_plus_one,
    negative_count,
    restricted,
    unitary_conjugated_family,
)


def diag(*vals):
    return HermitianMatrix(np.diag(np.asarray(vals, dtype=float)))


class TestFlowPartition:
    def test_constant_split_single_segment(self):
        f = constant_family(diag(-1.0, 1.0), 1.0)
        part = build_flow_partition(f)
        assert part.segments == 1
        assert part.levels[0] == pytest.approx(0.0)
        assert part.witness_gaps[0] >= 1.0 - 1e-9

    def test_sweeping_family_admissible_level(self):
        # the eigenvalue sweeps [-1/2, 1/2], yet one level above the sweep
        # is admissible on the whole interval: a single segment suffices
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        part = build_flow_partition(f)
        assert part.segments == 1
        assert part.levels[0] > 0.5
        for n in range(part.segments):
            assert part.witness_gaps[n] >= 1e-6
        assert part.to_dict()["certificates"] == ["derivative"]

    def test_swap_block_level_zero(self):
        f = swap_block_family(-1.0, 1.0)
        part = build_flow_partition(f)
        assert part.segments == 1
        assert part.levels[0] == pytest.approx(0.0)
        assert part.witness_gaps[0] >= 1.0 - 1e-9

    def test_levels_are_nonnegative(self, rng):
        for _ in range(5):
            f = random_trig_family(4, rng)
            part = build_flow_partition(f)
            assert np.all(part.levels >= 0.0)
            assert part.points[0] == 0.0 and part.points[-1] == pytest.approx(f.horizon)
            assert np.all(np.diff(part.points) > 0)

    def test_pinned_eigenvalue_resolved_above_spectrum(self):
        # an eigenvalue pinned at zero and a partner sweeping through zero:
        # no level near zero is ever admissible, but a certified level above
        # the whole sampled spectrum always exists in finite dimensions
        def ev(t):
            return diag_at(t, 0.0, 2.0 * t - 1.0)

        from apsflow.families import _validated_family

        f = _validated_family(2, 1.0, "pinned", ev, lambda t: diag_at(t, 0.0, 2.0))
        part = build_flow_partition(f)
        assert part.segments >= 1
        assert np.all(part.levels > 1.0)  # forced above the sweeping partner
        # even absurd clearance demands resolve above the spectrum rather
        # than bottoming out, so the flow machinery stays total on valid input
        wide = build_flow_partition(f, gamma_min=10.0)
        assert np.all(wide.witness_gaps >= 10.0)

    def test_computed_once_per_sample_count_and_gamma_min(self):
        f = linear_family(diag(-1.0, 0.3), diag(0.0, 0.1), 1.0)
        keys = [(33, 1e-6), (33, 0.4), (17, 1e-6)]
        kept = [build_flow_partition(f, n, gamma_min=g) for n, g in keys]
        # a clearance of 0.4 fits no level between -1 and 0.3: it moves above the spectrum
        assert kept[0].levels.tolist() == [0.0]
        assert kept[1].levels[0] > 1.0
        assert kept[0].margins.tolist() != kept[2].margins.tolist()
        for (n, g), part in zip(keys, kept):
            assert build_flow_partition(f, n, gamma_min=g) is part
            fresh = build_flow_partition(replace(f), n, gamma_min=g)
            assert fresh is not part
            assert fresh.to_dict() == part.to_dict()

    def test_kept_arrays_are_read_only(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        part = build_flow_partition(f)
        for name in ("points", "levels", "witness_gaps", "margins"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(part, name)[0] = 7.0
        assert build_flow_partition(f).points[0] == 0.0


class TestSpectralFlow:
    def test_constant_family_zero(self):
        f = constant_family(diag(-1.0, 1.0), 1.0)
        assert spectral_flow(f).value == 0

    def test_scalar_upcrossing(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        rep = spectral_flow(f)
        assert rep.value == 1
        assert sum(rep.per_segment_terms) == 1

    def test_counterexample_no_flow(self):
        assert spectral_flow(counterexample_family([1.0, 2.0, 3.0])).value == 0

    def test_diagonal_path_mixed_crossings(self):
        # oracle: entries -2 -> 1 and -1 -> 2 cross upward, 1 -> -3 crosses
        # downward, so the net flow is 2 - 1 = 1
        f = diagonal_path_family([-2.0, -1.0, 1.0], [1.0, 2.0, -3.0], 1.0)
        assert spectral_flow(f).value == 1

    def test_downcrossing(self):
        f = linear_family(diag(0.5), diag(-1.0), 1.0)
        assert spectral_flow(f).value == -1

    def test_eigenvalue_ending_at_zero_counts(self):
        # the eigenvalue reaches 0 exactly at t = T; zero counts as positive
        f = linear_family(diag(-1.0), diag(1.0), 1.0)
        assert spectral_flow(f).value == 1

    def test_eigenvalue_starting_at_zero(self):
        # starts at 0 (already nonnegative) and moves up: no crossing
        f = linear_family(diag(0.0), diag(1.0), 1.0)
        assert spectral_flow(f).value == 0

    def test_tangent_touch_at_zero_no_flow(self):
        # the eigenvalue dips to exactly zero at t = 1/2 and returns: zero
        # counts as nonnegative throughout, so nothing crosses
        from apsflow.families import _validated_family

        f = _validated_family(
            1,
            1.0,
            "tangent",
            lambda t: diag_at(t, (t - 0.5) ** 2),
            lambda t: diag_at(t, 2.0 * (t - 0.5)),
        )
        assert spectral_flow(f).value == 0

    def test_shallow_double_crossing_nets_zero(self):
        # dips below zero between samples and comes back: the net flow is
        # zero regardless of whether the transient is sampled
        from apsflow.families import _validated_family

        f = _validated_family(
            1,
            1.0,
            "shallow-dip",
            lambda t: diag_at(t, (t - 0.5) ** 2 - 1e-8),
            lambda t: diag_at(t, 2.0 * (t - 0.5)),
        )
        assert spectral_flow(f).value == 0
        assert flowind_check(f).passed

    def test_pinned_eigenvalue_dwell_flagged(self):
        from apsflow.families import _validated_family

        f = _validated_family(
            2,
            1.0,
            "pinned",
            lambda t: diag_at(t, 0.0, 2.0 * t - 1.0),
            lambda t: diag_at(t, 0.0, 2.0),
        )
        rep = spectral_flow(f)
        dwell = [e for e in rep.crossing_log if e.direction == 0]
        assert dwell and all(e.eigenvalue_index in (0, 1) for e in dwell)

    def test_crossing_log_records_upcrossing(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        rep = spectral_flow(f)
        ups = [e for e in rep.crossing_log if e.direction == +1]
        assert len(ups) == 1
        assert ups[0].t == pytest.approx(0.5, abs=0.02)

    def test_crossing_log_csv(self, tmp_path):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        rep = spectral_flow(f)
        path = tmp_path / "crossings.csv"
        crossing_log_to_csv(rep, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,eigenvalue_index,lambda,direction"
        assert len(lines) == 1 + len(rep.crossing_log)


def _candidate_level_loop(pool, margin):
    """The gap-by-gap scoring loop, kept as the reference for ``_candidate_level``."""
    edges = np.concatenate(([-math.inf], pool, [math.inf]))
    best = None
    for left, right in zip(edges[:-1], edges[1:]):
        lo = max(left + margin, 0.0) if math.isfinite(left) else 0.0
        hi = right - margin if math.isfinite(right) else math.inf
        if lo > hi:
            continue
        if not math.isfinite(right):
            cand = max(left, 0.0) + 1.0 if math.isfinite(left) else 1.0
            cand = max(cand, lo)
        elif not math.isfinite(left):
            cand = lo
        else:
            cand = min(max((left + right) / 2.0, lo), hi)
        clearance = float(np.min(np.abs(pool - cand))) if pool.size else math.inf
        if clearance < margin:
            continue
        if best is None or (cand, -clearance) < (best[0], -best[1]):
            best = (cand, clearance)
    return best


def _crossing_log_loop(family, tau_0):
    """The step-by-step event loop, kept as the reference for ``_crossing_log``."""
    ts = np.linspace(0.0, family.horizon, CROSSING_SAMPLES)
    eigs = np.linalg.eigvalsh(family.at_many(ts))
    snapped = snap_eigenvalues(eigs, tau_0)
    events = []
    dwelling = np.zeros(eigs.shape[1], dtype=bool)
    for j in range(1, ts.shape[0]):
        prev, cur = snapped[j - 1], snapped[j]
        for i in range(eigs.shape[1]):
            was_neg, is_neg = prev[i] < 0.0, cur[i] < 0.0
            if was_neg != is_neg:
                t_mid = float((ts[j - 1] + ts[j]) / 2.0)
                events.append(CrossingEvent(t_mid, i, float(eigs[j, i]), +1 if was_neg else -1))
        near = np.abs(eigs[j]) <= 10.0 * tau_0
        near_prev = np.abs(eigs[j - 1]) <= 10.0 * tau_0
        for i in range(eigs.shape[1]):
            if near[i] and near_prev[i] and not dwelling[i]:
                events.append(CrossingEvent(float(ts[j - 1]), i, float(eigs[j - 1, i]), 0))
        dwelling = near & near_prev
    return tuple(events)


def _bits(level):
    return None if level is None else struct.pack("<dd", *level)


class TestCandidateLevel:
    def test_matches_gap_loop_bitwise(self):
        rng = np.random.default_rng(11)
        cases = 0
        for trial in range(600):
            size = int(rng.integers(0, 40))
            raw = rng.standard_normal(size) * 10.0 ** rng.uniform(-9, 1)
            if trial % 3 == 1:
                raw = np.abs(raw)  # one sign: every gap edge is positive
            elif trial % 3 == 2:
                raw = -np.abs(raw)
            pool = np.unique(raw)
            margin = 10.0 ** rng.uniform(-8, 1)
            got = _candidate_level(pool, margin)
            assert _bits(got) == _bits(_candidate_level_loop(pool, margin))
            cases += got is None
        assert cases > 0  # some pools admit no level at their margin

    def test_small_pools(self):
        # the gap around zero gives level 0; an empty pool and the gap above
        # the spectrum fall back to unit clearance above the top edge
        pool = np.array([-3.0, -1.0, 1.0, 3.0])
        assert _candidate_level(pool, 0.5) == _candidate_level_loop(pool, 0.5) == (0.0, 1.0)
        assert _candidate_level(np.array([]), 0.5) == (1.0, math.inf)
        assert _candidate_level(np.array([0.0]), 2.0) == (2.0, 2.0)
        assert _candidate_level_loop(np.array([0.0]), 2.0) == (2.0, 2.0)


class TestCrossingLogReference:
    @staticmethod
    def _dwell_family():
        from apsflow.families import _validated_family

        # at sample 64 (t = 1/2) eigenvalue 0 starts dwelling just below zero
        # while eigenvalue 1 crosses down beside it; 1 dwells from sample 65
        def ev(t):
            t = np.asarray(t, dtype=float)
            return diag_at(t, np.where(t >= 0.5, -5e-9, -1.0), np.where(t > 0.5, -2e-9, 0.5))

        def flat(t):  # piecewise constant: the derivative vanishes away from the jumps
            return diag_at(t, 0.0, 0.0)

        return _validated_family(2, 1.0, "step-dwell", ev, flat, smoothness="piecewise")

    def test_crossings_come_before_dwells_within_a_step(self):
        ts = np.linspace(0.0, 1.0, CROSSING_SAMPLES)
        log = _crossing_log(self._dwell_family(), TAU_ZERO)
        assert log == (
            CrossingEvent(float((ts[64] + ts[65]) / 2.0), 1, -2e-9, -1),
            CrossingEvent(0.5, 0, -5e-9, 0),
            CrossingEvent(float(ts[65]), 1, -2e-9, 0),
        )

    def test_matches_step_loop(self):
        pinned = linear_family(diag(0.0, -0.5), diag(0.0, 1.0), 1.0)
        families = [*shipped_families(), *random_zoo(12, 0), pinned, self._dwell_family()]
        total = dwells = 0
        for f in families:
            log = _crossing_log(f, TAU_ZERO)
            assert log == _crossing_log_loop(f, TAU_ZERO)
            total += len(log)
            dwells += sum(e.direction == 0 for e in log)
        assert total > 20 and dwells >= 4


class TestFlowProperties:
    def test_additivity_under_concatenation(self, rng):
        for _ in range(8):
            f = random_trig_family(4, rng)
            s = float(rng.uniform(0.2, 0.8))
            total = spectral_flow(f).value
            left = spectral_flow(restricted(f, 0.0, s)).value
            right = spectral_flow(restricted(f, s, f.horizon)).value
            assert total == left + right

    def test_time_reversal_negates(self, rng):
        for _ in range(8):
            f = random_trig_family(4, rng)
            w0 = np.abs(np.linalg.eigvalsh(f.at(0.0).entries))
            w1 = np.abs(np.linalg.eigvalsh(f.at(1.0).entries))
            if min(w0.min(), w1.min()) < 1e-6:
                continue  # antisymmetry is only claimed for invertible endpoints
            assert spectral_flow(f.time_reversed()).value == -spectral_flow(f).value

    def test_partition_refinement_invariance(self, rng):
        for _ in range(5):
            f = random_trig_family(4, rng)
            coarse = spectral_flow(f, n_samples=17)
            fine = spectral_flow(f, n_samples=65)
            assert coarse.value == fine.value
            # forcibly refined: flow over every half-segment sums to the same
            halves = 0
            for t0, t1 in zip(coarse.partition.points[:-1], coarse.partition.points[1:]):
                mid = (float(t0) + float(t1)) / 2.0
                halves += spectral_flow(restricted(f, float(t0), mid)).value
                halves += spectral_flow(restricted(f, mid, float(t1))).value
            assert halves == coarse.value

    def test_flow_equals_endpoint_rank_difference(self, rng):
        from apsflow.matrixcore import NEGATIVE_AXIS, eigh, spectral_projection

        for _ in range(10):
            f = random_trig_family(int(rng.choice([2, 4, 8])), rng)
            r0 = spectral_projection(eigh(f.at(0.0)), NEGATIVE_AXIS).rank
            r1 = spectral_projection(eigh(f.at(1.0)), NEGATIVE_AXIS).rank
            assert spectral_flow(f).value == r0 - r1


def _readout_families():
    rng = np.random.default_rng(np.random.SeedSequence(17).spawn(1)[0])
    sampled = sampled_family(
        [0.0, 0.4, 1.3],
        [np.diag([-0.6, 0.2, 0.9]), np.diag([0.3, -0.4, 0.5]), np.diag([0.7, 0.1, -0.8])],
    )
    # eigenvalues fast enough (level margins above 1) that the partition has 3 segments
    fast = linear_family(diag(-90.0, 60.0), diag(150.0, -80.0), 1.0)
    return [
        *shipped_families(),
        *random_zoo(8, 17, sizes=(2, 3, 4, 8, 16)),
        *(singular_endpoint_family(int(rng.integers(2, 5)), rng) for _ in range(8)),
        *(make() for make in HARD_CHECKPOINT_FAMILIES.values()),
        sampled,
        fast,
    ]


class TestRunningFlows:
    def test_every_readout_is_the_flow_on_its_prefix(self):
        inside_moves = 0  # readouts strictly inside a segment that differ from one of its ends
        segments = []
        for f in _readout_families():
            points = build_flow_partition(f).points
            segments.append(points.size - 1)
            checkpoints = np.linspace(0.0, f.horizon, 257)[32::32]
            times = np.unique(np.concatenate((checkpoints, points[1:], [f.horizon])))
            flows = running_flows(f, times)
            at_point = dict(zip(times.tolist(), flows))
            at_point[0.0] = 0
            for t, flow in zip(times.tolist(), flows):
                assert flow == spectral_flow(restricted(f, 0.0, t)).value, (f.label, t)
                assert flow == negative_count(f, 0.0) - negative_count(f, t), (f.label, t)
                n = int(np.searchsorted(points, t)) - 1
                if t != points[n + 1]:
                    left, right = at_point[points[n]], at_point[points[n + 1]]
                    inside_moves += flow != left or flow != right
        assert inside_moves >= 10 and max(segments) >= 3

    def test_readout_at_the_horizon_is_the_whole_flow(self):
        for f in _readout_families():
            assert running_flows(f, [f.horizon]) == [spectral_flow(f).value], f.label

    def test_times_outside_the_horizon_are_rejected(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        for times in ([0.0, 0.5], [0.5, 1.5]):
            with pytest.raises(ValueError, match="flow times must lie in"):
                running_flows(f, times)
        # the evaluation clock's tolerance at T, which imported propagator grids may need
        assert running_flows(f, [0.5, 1.0 + 1e-13]) == [1, 1]


class TestFlowIndexCheck:
    def test_constant(self):
        rec = flowind_check(constant_family(diag(-1.0, 1.0), 1.0))
        assert rec.passed and rec.sfl_value == 0 and rec.pair_index == 0

    def test_scalar_upcrossing(self):
        rec = flowind_check(linear_family(diag(-0.5), diag(1.0), 1.0))
        assert rec.passed
        assert rec.sfl_value == 1 and rec.pair_index == 1
        assert rec.index_report.diagnostics["restriction_rank"] == 0

    def test_random_families(self, rng):
        for _ in range(20):
            f = random_trig_family(int(rng.choice([2, 4, 8])), rng)
            assert flowind_check(f).passed

    def test_singular_endpoints(self, rng):
        for _ in range(5):
            f = singular_endpoint_family(3, rng)
            assert flowind_check(f).passed

    def test_mismatch_raises_with_both_integers(self, monkeypatch):
        monkeypatch.setattr(spectralflow, "spectral_flow", flow_plus_one(spectral_flow))
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        with pytest.raises(ConsistencyError, match="spectral flow 2 != endpoint pair index 1") as exc:
            flowind_check(f)
        assert exc.value.record.passed is False
        assert not flowind_check(f, raise_on_mismatch=False).passed


class TestConcurrentUse:
    def test_shared_family_across_threads(self, rng):
        # pure evaluation contract: concurrent flow computations on shared
        # immutable inputs must agree with the sequential answers
        from concurrent.futures import ThreadPoolExecutor

        families = [random_trig_family(3, rng) for _ in range(6)]
        expected = [spectral_flow(f).value for f in families]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda f: spectral_flow(f).value, families * 3))
        assert results == expected * 3


class TestConjugationInvariance:
    def test_identity(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        conj = unitary_conjugated_family(f, np.zeros((1, 1)), np.eye(1))
        flow, flow_conj, deviation = conjugation_flows(f, conj)
        assert flow == flow_conj and deviation < 1e-14

    def test_constant_hadamard_like(self):
        f = linear_family(diag(-0.5, 0.5), diag(1.0, 1.0), 1.0)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        conj = unitary_conjugated_family(f, np.zeros((2, 2)), h)
        flow, flow_conj, deviation = conjugation_flows(f, conj)
        assert flow == flow_conj and deviation <= 1e-10

    def test_time_dependent_unitary_path(self, rng):
        f = random_trig_family(3, rng)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        k = -0.5j * (g - g.conj().T)  # Hermitian generator of U(t) = exp(i t k)
        conj = unitary_conjugated_family(f, k, np.eye(3))
        flow, flow_conj, deviation = conjugation_flows(f, conj)
        assert flow == flow_conj and deviation <= 1e-10
