"""Spectral flow via flow partitions, with endpoint-index cross-checks.

The flow of a family is computed from a partition ``0 = t_0 < ... < t_N = T``
with per-segment levels ``a_n >= 0`` that stay clear of the spectrum on the
whole segment; the flow is the telescoping sum of the dimension increments
of the spectral subspaces for ``[0, a_n)``.  Segment admissibility is
certified on a sample grid together with an eigenvalue-speed bound read
from the family's derivative (Weyl: ``|d lambda / dt| <= ||A'(t)||``);
segments without a certified level are bisected.  One partition of ``[0, T]`` also fixes the flow on every prefix
``[0, t]`` (:func:`running_flows`).  Because any certified level yields the
same telescoped integer, agreement with the independently computed relative
index of the endpoint negative spectral projections is a real check on the
certificates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, NoAdmissibleLevelError
from .families import CLOCK_ATOL, OperatorFamily
from .matrixcore import (
    GAMMA_MIN,
    TAU_RANK_PAIR,
    TAU_ZERO,
    IndexReport,
    relative_index,
    snap_eigenvalues,
)
from .reporting import write_csv

MIN_SEGMENT_FRACTION = 2.0**-20
DEFAULT_SEGMENT_SAMPLES = 33
CROSSING_SAMPLES = 129  # uniform times the crossing log samples over [0, T]


@dataclass(frozen=True)
class FlowPartition:
    """A certified flow partition: points, levels, and per-segment evidence."""

    points: np.ndarray
    levels: np.ndarray
    witness_gaps: np.ndarray  # min sampled distance from the level to the spectrum
    margins: np.ndarray  # clearance each level had to certify: gamma_min + max ||A'|| * spacing/2

    def __post_init__(self):
        # one partition serves every caller on its family: none may write to it
        for name in ("points", "levels", "witness_gaps", "margins"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def segments(self) -> int:
        return self.levels.shape[0]

    def to_dict(self) -> dict:
        return {
            "points": [float(t) for t in self.points],
            "levels": [float(a) for a in self.levels],
            "witness_gaps": [float(g) for g in self.witness_gaps],
            "margins": [float(m) for m in self.margins],
            "certificates": ["derivative"] * self.segments,
        }


@dataclass(frozen=True)
class CrossingEvent:
    """Diagnostic record of an eigenvalue crossing (or dwelling near) zero."""

    t: float
    eigenvalue_index: int
    value: float
    direction: int  # +1 upward, -1 downward, 0 dwelling near zero

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "eigenvalue_index": self.eigenvalue_index,
            "lambda": self.value,
            "direction": self.direction,
        }


@dataclass(frozen=True)
class SflReport:
    """Spectral flow value with the partition and per-segment terms behind it.

    The crossing log is a diagnostic for reports; it is sampled from
    ``family`` on first access, so flows whose log nobody reads never
    build it.
    """

    value: int
    partition: FlowPartition
    per_segment_terms: tuple[int, ...]
    family: OperatorFamily = field(repr=False, compare=False)
    tau_0: float

    def __post_init__(self):
        if self.value != sum(self.per_segment_terms):
            raise ConsistencyError(
                f"spectral flow {self.value} is not the sum of segment terms "
                f"{self.per_segment_terms}"
            )

    @functools.cached_property
    def crossing_log(self) -> tuple[CrossingEvent, ...]:
        return _crossing_log(self.family, self.tau_0)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "per_segment_terms": list(self.per_segment_terms),
            "partition": self.partition.to_dict(),
            "crossing_log": [e.to_dict() for e in self.crossing_log],
        }


def crossing_log_to_csv(report: SflReport, path) -> None:
    rows = [[e.t, e.eigenvalue_index, e.value, e.direction] for e in report.crossing_log]
    write_csv(path, ["t", "eigenvalue_index", "lambda", "direction"], rows)


def _eig_samples(family: OperatorFamily, ts: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(family.at_many(ts))


def _speed_bound(family: OperatorFamily, ts: np.ndarray) -> float:
    """Max eigenvalue speed at the segment's samples: the largest sampled ``||A'(t)||``."""
    speeds = np.linalg.eigvalsh(family.derivative_at_many(ts))
    return float(np.max(np.abs(speeds), initial=0.0))


def _candidate_level(pool: np.ndarray, margin: float) -> tuple[float, float] | None:
    """Pick a level ``a >= 0`` at distance >= margin from every pooled eigenvalue.

    Gap candidates are scored by smallness of the level (keeping the counted
    window ``[0, a)`` tight around zero), breaking ties by clearance and
    then by position.  The gap above the whole spectrum backstops with a
    unit-clearance level.  ``pool`` is sorted and unique, so the pooled value
    nearest a candidate inside a gap is one of the gap's two edges.
    """
    if not pool.size:
        return 1.0, math.inf
    left = np.concatenate(([-math.inf], pool))  # gap g lies between left[g] and right[g]
    right = np.concatenate((pool, [math.inf]))
    lo = np.maximum(left + margin, 0.0)
    hi = right - margin
    cand = np.minimum(np.maximum((left + right) / 2.0, lo), hi)
    cand[-1] = max(max(left[-1], 0.0) + 1.0, lo[-1])
    clearance = np.minimum(cand - left, right - cand)
    valid = np.flatnonzero(~(lo > hi) & ~(clearance < margin))
    if not valid.size:
        return None
    best = valid[np.lexsort((-clearance[valid], cand[valid]))[0]]
    return float(cand[best]), float(clearance[best])


def build_flow_partition(
    family: OperatorFamily,
    n_samples: int = DEFAULT_SEGMENT_SAMPLES,
    *,
    gamma_min: float = GAMMA_MIN,
) -> FlowPartition:
    """Construct a flow partition by adaptive bisection.

    Each candidate segment is sampled at ``n_samples`` uniform times; a level
    is admissible when its distance to every sampled eigenvalue exceeds
    ``gamma_min`` plus the certified excursion ``L * s/2``: the eigenvalue
    speed ``L``, the largest ``||A'(t)||`` at the samples, times half the
    sample spacing ``s``.  Segments without an admissible level are
    bisected, down to a minimal width of ``T * MIN_SEGMENT_FRACTION``
    (``T * 2^-20``), below which the family is reported as pathological.

    Computed once per family object, ``n_samples`` and ``gamma_min``; the
    arrays of the partition returned are read-only.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples}")
    return family._computed_once(
        ("build_flow_partition", n_samples, gamma_min),
        lambda: _bisected_partition(family, n_samples, gamma_min),
    )


def _bisected_partition(family: OperatorFamily, n_samples: int, gamma_min: float) -> FlowPartition:
    horizon = family.horizon
    delta_min = horizon * MIN_SEGMENT_FRACTION

    points = [0.0]
    levels: list[float] = []
    witness: list[float] = []
    margins: list[float] = []

    def process(t0: float, t1: float) -> None:
        ts = np.linspace(t0, t1, n_samples)
        eigs = _eig_samples(family, ts)
        spacing = (t1 - t0) / (n_samples - 1)
        margin = gamma_min + _speed_bound(family, ts) * (spacing / 2.0)
        pool = np.unique(eigs.ravel())
        found = _candidate_level(pool, margin)
        if found is not None:
            level, clearance = found
            points.append(t1)
            levels.append(level)
            witness.append(clearance)
            margins.append(margin)
            return
        if (t1 - t0) / 2.0 < delta_min:
            raise NoAdmissibleLevelError(
                f"no admissible level on [{t0:g}, {t1:g}] above minimal width "
                f"{delta_min:.3g}: an eigenvalue obstructs every candidate level "
                f"at clearance {margin:.3g}"
            )
        mid = (t0 + t1) / 2.0
        process(t0, mid)
        process(mid, t1)

    process(0.0, horizon)
    return FlowPartition(
        points=np.asarray(points),
        levels=np.asarray(levels),
        witness_gaps=np.asarray(witness),
        margins=np.asarray(margins),
    )


def _count_window(eigs: np.ndarray, level: float, tau_0: float) -> int:
    """Dimension of the spectral subspace for ``[0, level)`` with zero snapping."""
    snapped = snap_eigenvalues(eigs, tau_0)
    return int(np.count_nonzero((snapped >= 0.0) & (snapped < level)))


def _crossing_log(family: OperatorFamily, tau_0: float) -> tuple[CrossingEvent, ...]:
    """Sign changes and dwell starts over a uniform sample, ordered by step.

    Within a step, crossings come before dwells and each kind runs in
    eigenvalue order.  A crossing between samples ``j`` and ``j + 1`` is
    stamped at their midpoint with the value at ``j + 1``; a dwell starts at
    sample ``j`` when eigenvalue ``i`` is within ``10 tau_0`` of zero at
    ``j`` and ``j + 1`` but not at both ``j - 1`` and ``j``.
    """
    ts = np.linspace(0.0, family.horizon, CROSSING_SAMPLES)
    eigs = _eig_samples(family, ts)
    negative = snap_eigenvalues(eigs, tau_0) < 0.0
    near = np.abs(eigs) <= 10.0 * tau_0
    both = near[1:] & near[:-1]
    starts = both & ~np.vstack([np.zeros_like(both[:1]), both[:-1]])
    cross_step, cross_index = np.nonzero(negative[1:] != negative[:-1])
    dwell_step, dwell_index = np.nonzero(starts)
    step = np.concatenate([cross_step, dwell_step])
    kind = np.repeat([0, 1], [cross_step.size, dwell_step.size])
    index = np.concatenate([cross_index, dwell_index])
    t = np.concatenate([(ts[cross_step] + ts[cross_step + 1]) / 2.0, ts[dwell_step]])
    value = np.concatenate([eigs[cross_step + 1, cross_index], eigs[dwell_step, dwell_index]])
    direction = np.concatenate(
        [np.where(negative[cross_step, cross_index], 1, -1), np.zeros(dwell_step.size, int)]
    )
    order = np.lexsort((index, kind, step))
    return tuple(
        CrossingEvent(*event)
        for event in zip(
            t[order].tolist(),
            index[order].tolist(),
            value[order].tolist(),
            direction[order].tolist(),
        )
    )


def spectral_flow(
    family: OperatorFamily,
    n_samples: int = DEFAULT_SEGMENT_SAMPLES,
    *,
    gamma_min: float = GAMMA_MIN,
    tau_0: float = TAU_ZERO,
) -> SflReport:
    """Spectral flow of the family over its full time interval.

    The value is the partition sum of dimension increments of the spectral
    windows ``[0, a_n)``; eigenvalues within ``tau_0`` of zero count as
    exactly zero (hence inside the window).
    """
    partition = build_flow_partition(family, n_samples, gamma_min=gamma_min)
    terms = _segment_terms(partition, _eig_samples(family, partition.points), tau_0)
    return SflReport(
        value=sum(terms),
        partition=partition,
        per_segment_terms=tuple(terms),
        family=family,
        tau_0=tau_0,
    )


def _segment_terms(partition: FlowPartition, eigs: np.ndarray, tau_0: float) -> list[int]:
    """Dimension increment of each segment's window, from the eigenvalues at the points."""
    return [
        _count_window(eigs[n + 1], level, tau_0) - _count_window(eigs[n], level, tau_0)
        for n, level in enumerate(partition.levels)
    ]


def running_flows(
    family: OperatorFamily,
    times,
    *,
    gamma_min: float = GAMMA_MIN,
    tau_0: float = TAU_ZERO,
) -> list[int]:
    """Spectral flow on ``[0, t]`` for each time ``t`` in ``(0, T]``, from one partition.

    One certified partition ``p_0 < ... < p_N`` of the whole family fixes
    every such flow.  For ``t`` in the segment ``(p_n, p_{n+1}]`` the flow is
    the sum of the terms of the segments before it plus the partial term
    ``#[0, a_n)(t) - #[0, a_n)(p_n)``: the certificate keeps ``a_n`` at
    least ``gamma_min`` from the spectrum on the whole segment, ``t``
    included, so the partial term is the flow on ``[p_n, t]``.  The
    eigenvalues at the partition points and at the times come from one
    evaluation and one ``eigvalsh``.  A family without a certified
    partition raises :class:`NoAdmissibleLevelError` exactly where
    :func:`spectral_flow` does.  The partition is the family's one
    partition at ``gamma_min`` (:func:`build_flow_partition` keeps it per
    family object), so a family whose flow :func:`flowind_check` already
    took is not bisected again.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0.0) or np.any(times > family.horizon + CLOCK_ATOL):
        raise ValueError(f"flow times must lie in (0, {family.horizon}], got {times.tolist()}")
    times = np.minimum(times, family.horizon)  # the clock's tolerance at T
    partition = build_flow_partition(family, gamma_min=gamma_min)
    points = partition.points
    eigs = _eig_samples(family, np.concatenate((points, times)))
    at_points, at_times = eigs[: points.size], eigs[points.size :]
    before = np.cumsum([0, *_segment_terms(partition, at_points, tau_0)])
    segment = np.searchsorted(points, times) - 1  # p_n < t <= p_{n+1}
    return [
        int(before[n])
        + _count_window(eig, partition.levels[n], tau_0)
        - _count_window(at_points[n], partition.levels[n], tau_0)
        for n, eig in zip(segment.tolist(), at_times)
    ]


@dataclass(frozen=True)
class FlowIndexRecord:
    """Agreement record: spectral flow vs relative index of endpoint projections."""

    family_label: str
    sfl_value: int
    pair_index: int
    passed: bool
    sfl_report: SflReport
    index_report: IndexReport

    def to_dict(self) -> dict:
        return {
            "family": self.family_label,
            "check": "flowind",
            "sfl": self.sfl_value,
            "endpoint_pair_index": self.pair_index,
            "passed": self.passed,
            "index_report": self.index_report.to_dict(),
            "sfl_report": self.sfl_report.to_dict(),
        }


def flowind_check(
    family: OperatorFamily,
    *,
    gamma_min: float = GAMMA_MIN,
    tau_0: float = TAU_ZERO,
    tau_rank: float = TAU_RANK_PAIR,
    raise_on_mismatch: bool = True,
) -> FlowIndexRecord:
    """Check that the spectral flow equals the endpoint projection-pair index.

    The flow comes from the partition construction; the index from the
    relative index of the negative spectral projections at ``t = 0`` and
    ``t = T``.  On mismatch the record is raised inside a
    :class:`ConsistencyError` (or returned with ``passed=False`` when
    ``raise_on_mismatch`` is off).  The partition is the one
    :func:`running_flows` reads for the same family and ``gamma_min``, and
    the two projections are the family's kept ``negative_projection`` at
    each end, which the transport main check and the projection route read
    too, with their range bases.  What separates the two integers is
    unchanged: the flow reads eigenvalue samples against certified levels,
    the index only the two endpoint decompositions.
    """
    report = spectral_flow(family, gamma_min=gamma_min, tau_0=tau_0)
    p0, pt = (family.negative_projection(end, tau_0) for end in (0, 1))
    pair = relative_index(p0, pt, tau_rank=tau_rank)
    record = FlowIndexRecord(
        family_label=family.label,
        sfl_value=report.value,
        pair_index=pair.index,
        passed=report.value == pair.index,
        sfl_report=report,
        index_report=pair,
    )
    if not record.passed and raise_on_mismatch:
        raise ConsistencyError(
            f"family {family.label!r}: spectral flow {report.value} != "
            f"endpoint pair index {pair.index}",
            record=record,
        )
    return record
