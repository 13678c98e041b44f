"""Structure-preserving propagators.

The unitary propagator integrates ``dU/dt = i A(t) U`` with exponential
one-step maps (each step is the exponential of a skew-Hermitian matrix,
computed through the eigendecomposition of the Hermitian generator, hence
exactly unitary up to eigensolver error).  Two schemes are provided: a
midpoint-exponential (second order) default and a fourth-order
commutator-free composition for accuracy studies.  The one non-unitary
chain is shooting's pair: a family and its time reversal integrate the
decaying equation ``dR/dt = -A(t) R`` under a stiffness guard in one loop,
one matrix product per step on the pair, and only the end transfers
``R(T, 0)`` and their condition numbers are kept; the reversal borrows the
forward step exponentials where the mirrored generators agree bit for bit.
Each propagator runs its own streamed integrator loop: generators are
evaluated, exponentiated and multiplied into the products in chunks of at
most ``STEP_CHUNK_BYTES`` per stage, so a propagation holds its stored
products plus a small fixed buffer.  A unitary propagation of two or more
chunks computes its factors on a process-wide pool of at most two worker
threads, at most ``FACTOR_CHUNKS_IN_FLIGHT`` chunks ahead, while the
calling thread multiplies them in step order and, after each chunk, takes
the unitarity defect of each new product; a one-chunk stream runs inline.
Every kernel works one matrix at a time and the products keep their order,
so the threads move no bit.  The 2x2 eigenline-swapping blocks admit a
closed-form propagator which serves as an exact oracle for everything
else.  The rest of the module reads propagators: evolved spectral
projections, convergence studies, and the propagator file format.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, OffGridError, StiffnessError
from .families import OperatorFamily, quintic_profile
from .matrixcore import (
    NEGATIVE_AXIS,
    TAU_ZERO,
    eigh_stack,
    projection_stack,
    spectral_projections,
)

SCHEME_MIDPOINT = "midpoint-exponential"
SCHEME_CF4 = "fourth-order-commutator-free"
SCHEMES = (SCHEME_MIDPOINT, SCHEME_CF4)

UNITARITY_ATOL = 1e-10
STIFFNESS_BOUND = 40.0
CONDITION_WARNING = 1e12
COST_BUDGET = 2e10  # flop-ish budget: substeps * dim^3 before a cost warning
CONVERGENCE_STEPS = (64, 128, 256, 512)  # the step counts convergence_study compares
REFERENCE_MULTIPLIER = 16  # convergence reference grid / finest studied grid
STEP_CHUNK_BYTES = 2**17  # generator stack per chunk and stage of the integrator loop

_CF4_NODE = math.sqrt(3.0) / 6.0
_CF4_ALPHA = 0.25 + _CF4_NODE  # weight on the near node
_CF4_BETA = 0.25 - _CF4_NODE


def _expi_hermitian_batch(mats: np.ndarray, factor: complex) -> np.ndarray:
    """Batched ``exp(factor * H)`` for Hermitian ``H`` via eigendecomposition."""
    w, v = np.linalg.eigh(mats)
    phases = np.exp(factor * w)
    return np.einsum("...ij,...j,...kj->...ik", v, phases, v.conj())


def _chunk_length(n: int, per: int = 1) -> int:
    """Groups of ``per`` complex ``(n, n)`` matrices per ``STEP_CHUNK_BYTES``; at least one."""
    return max(1, STEP_CHUNK_BYTES // (per * 16 * n * n))


def _gram(c: np.ndarray) -> np.ndarray:
    """``C_k* C_k`` for each matrix of the stack, summed over a contiguous axis.

    The same sums in the same order as ``einsum("kji,kjl->kil", c.conj(), c)``,
    hence the same bits, about twice as fast from n = 8 up.
    """
    ct = np.ascontiguousarray(c.swapaxes(1, 2))
    return np.einsum("kij,klj->kil", ct.conj(), ct)


_POOL: tuple[int, object] | None = None  # (process id, executor or None), set on first use
_POOL_LOCK = threading.Lock()
POOL_WORKERS = 2
FACTOR_CHUNKS_IN_FLIGHT = 3


def _worker_pool():
    """The process-wide pool of at most ``POOL_WORKERS`` threads; ``None`` to run inline.

    Started on the first call (and again in a forked child, which inherits
    no threads), with ``min(2, CPUs this process may run on)`` workers,
    both started at once.  With one CPU, or when a thread cannot be
    started, there is no pool and every caller runs inline.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            if hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))
            else:  # no affinity call on this platform
                cpus = os.cpu_count() or 1
            _POOL = (os.getpid(), _start_pool(min(POOL_WORKERS, cpus)))
        return _POOL[1]


def _start_pool(workers: int):
    """An executor with ``workers`` threads, all started now.

    ``None`` for fewer than two workers or when a thread cannot be started.
    """
    if workers < 2:
        return None
    from concurrent.futures import ThreadPoolExecutor  # not at import: it costs start-up time

    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="apsflow")
    release = threading.Event()
    try:
        # an executor starts a thread per submit while none is idle: hold each one busy
        for _ in range(workers):
            pool.submit(release.wait)
    except RuntimeError:  # a thread could not be started
        release.set()
        pool.shutdown(wait=True, cancel_futures=True)
        return None
    release.set()
    return pool


def _in_order(fn, args):
    """``fn(arg)`` for each of ``args``, yielded in order, computed on the pool where there is one.

    Inline when there is one argument or no pool.  Otherwise at most
    ``FACTOR_CHUNKS_IN_FLIGHT`` results are submitted and not yet handed
    out; the next is submitted when one is taken.  The first failing call
    in order raises its own exception, and on that or an early close the
    queued calls are cancelled and the running ones waited for, so no
    work outlives the generator.
    """
    pool = _worker_pool() if len(args) > 1 else None
    if pool is None:
        yield from map(fn, args)
        return
    rest = iter(args)
    pending = deque(pool.submit(fn, arg) for arg in itertools.islice(rest, FACTOR_CHUNKS_IN_FLIGHT))
    try:
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(fn, arg) for arg in itertools.islice(rest, 1))
            yield result
    finally:  # after an error or an early close: drop the queued, wait for the running
        for future in pending:
            future.cancel()
        for future in pending:
            if not future.cancelled():
                future.exception()


def _defects(u: np.ndarray) -> np.ndarray:
    """Max entry of ``|U_k* U_k - I|`` for each matrix ``U_k`` of the stack."""
    return np.max(np.abs(_gram(u) - np.eye(u.shape[-1])), axis=(1, 2))


@dataclass(frozen=True)
class Propagator:
    """Unitaries ``U_k ~ Q(t_k, 0)`` on a time grid, with the unitarity defect of each.

    The grid is 1-D and finite, holds one time per unitary, starts at
    exactly 0 and increases strictly; ``U_0`` is exactly the identity and
    every ``defects[k]``, the max entry of ``|U_k* U_k - I|`` computed where
    the unitaries were made, is at most ``UNITARITY_ATOL`` (a NaN fails;
    all validated at construction).  ``Q(t, s)`` between grid points is
    recovered as ``U_t U_s*``.
    """

    family_label: str
    grid: np.ndarray
    unitaries: np.ndarray  # (K+1, n, n)
    defects: np.ndarray  # (K+1,)
    step_scheme: str
    steps_per_interval: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        grid, u = self.grid, self.unitaries
        n = u.shape[-1]
        if grid.ndim != 1 or grid.shape[0] != u.shape[0]:
            raise ConsistencyError(
                f"propagator grid of shape {grid.shape} does not hold one time per "
                f"unitary ({u.shape[0]} unitaries)"
            )
        finite = np.all(np.isfinite(grid))
        if not (grid.size and finite and grid[0] == 0.0 and np.all(np.diff(grid) > 0.0)):
            raise ConsistencyError(
                "propagator grid must be finite, start at exactly 0 and increase strictly"
            )
        if not np.array_equal(u[0], np.eye(n)):
            raise ConsistencyError("propagator does not start at the identity")
        defect = self.unitarity_defect()
        if not defect <= UNITARITY_ATOL:
            raise ConsistencyError(
                f"propagator unitarity defect {defect:.3e} exceeds {UNITARITY_ATOL:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.unitaries.shape[-1]

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def unitarity_defect(self) -> float:
        """Max entry of ``|U_k* U_k - I|`` over the grid: the max of ``defects``."""
        return float(np.max(self.defects))

    def index_of(self, t: float) -> int:
        """Grid index of ``t``; raises ``OffGridError`` rather than interpolating."""
        k = int(np.argmin(np.abs(self.grid - t)))
        if abs(float(self.grid[k]) - t) > 1e-9 * max(1.0, self.horizon):
            raise OffGridError(
                f"time {t} is not on the propagator grid (nearest {self.grid[k]}); "
                "refine the grid instead of interpolating unitaries"
            )
        return k


def _step_factors(family: OperatorFamily, stages, exponent: complex, steps: int):
    """The step factors of one chain in step order, one chunk at a time.

    Each chunk of whole intervals, at most ``STEP_CHUNK_BYTES`` of generators
    per stage, is evaluated and checked (``at_many``) and exponentiated (and
    composed, for CF4).  A stream of two or more chunks computes them on the
    worker pool, at most ``FACTOR_CHUNKS_IN_FLIGHT`` ahead of the chunk
    handed out (:func:`_in_order`); a one-chunk stream, or one without a
    pool, computes each chunk inline when it is asked for.  A chunk depends
    only on its own generators, so where it is computed moves no bit.
    """
    chunk = _chunk_length(family.dim, steps) * steps

    def factors(start: int) -> np.ndarray:
        gens = [family.at_many(times[start : start + chunk]) for times in stages]
        if len(gens) == 1:
            return _expi_hermitian_batch(gens[0], exponent)
        a1, a2 = gens
        first = _expi_hermitian_batch(_CF4_ALPHA * a1 + _CF4_BETA * a2, exponent)
        second = _expi_hermitian_batch(_CF4_BETA * a1 + _CF4_ALPHA * a2, exponent)
        return np.einsum("kij,kjl->kil", second, first)

    return _in_order(factors, range(0, len(stages[0]), chunk))


def _mirrored_factors(first: OperatorFamily, reversal: OperatorFamily, times, exponent: complex):
    """Chunks ``(L, 2, n, n)`` of the midpoint factors of a family and its time reversal.

    ``first``'s ``K`` factors are computed up front and held (``K n^2``
    complex numbers), chunk by chunk.  While a chunk of ``first``'s
    generators is in hand, the reversal evaluates and checks its own
    generators at the mirrored steps, and one flag per step is kept:
    whether the reversal's generator at step ``k`` equals ``first``'s at
    step ``K - 1 - k`` bit for bit (compared as ``uint64``, so
    ``-0.0 != 0.0``).  Where the flag holds, the reversal takes ``first``'s
    factor of step ``K - 1 - k``; a chunk of the reversal's steps with a
    flag down is evaluated again, in the reversal's own order, and its
    unflagged steps are exponentiated.  A factor depends only on its
    generator's bytes and the exponent, so the sharing moves no bit.  The
    pairs are handed out as views of one buffer of ``_chunk_length(n, 2)``
    steps, overwritten by the next view.
    """
    total = len(times)
    n = first.dim
    chunk = _chunk_length(n)
    held = np.empty((total, n, n), dtype=complex)
    same = np.empty(total, dtype=bool)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        mirror = slice(total - stop, total - start)
        gens = first.at_many(times[start:stop])
        theirs = reversal.at_many(times[mirror])
        same[mirror] = np.all(theirs.view(np.uint64) == gens[::-1].view(np.uint64), axis=(1, 2))
        held[start:stop] = _expi_hermitian_batch(gens, exponent)
    gens = theirs = None  # freed before the pairs are handed out
    pair = _chunk_length(n, 2)
    buffer = np.empty((min(pair, total), 2, n, n), dtype=complex)
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        own = held[total - stop : total - start][::-1]
        differ = ~same[start:stop]
        if differ.any():
            own = own.copy()
            own[differ] = _expi_hermitian_batch(
                reversal.at_many(times[start:stop])[differ], exponent
            )
        for sub in range(start, stop, pair):
            factors = buffer[: min(pair, stop - sub)]
            factors[:, 0] = held[sub : sub + len(factors)]
            factors[:, 1] = own[sub - start : sub - start + len(factors)]
            yield factors


def _substep_grid(horizon: float, intervals: int, steps: int, scheme: str):
    """The stored grid, the stage times of every substep and the substep length.

    The stage times use the ``linspace`` spacing of the substeps, the length
    (the factor of every step exponent) is ``T / (intervals steps)``.
    """
    grid = np.linspace(0.0, horizon, intervals + 1)
    sub = np.linspace(grid[0], grid[-1], intervals * steps + 1)
    h_sub = float(sub[1] - sub[0])
    if scheme == SCHEME_MIDPOINT:
        stages = (sub[:-1] + h_sub / 2.0,)
    else:
        stages = (sub[:-1] + (0.5 - _CF4_NODE) * h_sub, sub[:-1] + (0.5 + _CF4_NODE) * h_sub)
    return grid, stages, float(grid[-1] - grid[0]) / (intervals * steps)


def propagate(
    family: OperatorFamily,
    intervals: int = 1024,
    steps: int = 1,
    *,
    scheme: str = SCHEME_MIDPOINT,
) -> Propagator:
    """Time-ordered unitary propagator of ``dU/dt = i A(t) U`` on a uniform grid.

    ``intervals`` fixes the stored grid; each interval is integrated with
    ``steps`` substeps.  The midpoint scheme has global error ``O(h^2)``
    against the exact propagator (``O(h^4)`` for the fourth-order scheme)
    and is exact for constant families.

    The step factors come in chunks of at most ``STEP_CHUNK_BYTES`` of
    generators per stage (:func:`_step_factors`), and every product is
    kept.  Of two or more chunks, the factors are computed on a
    process-wide pool of at most two worker threads (none with one CPU or
    when a thread cannot be started), at most ``FACTOR_CHUNKS_IN_FLIGHT``
    chunks ahead, while this thread multiplies them in order, one ``np.dot``
    per substep, and then takes the unitarity defect of each product the
    chunk made; one chunk is computed inline.  The earliest failing chunk
    raises, and no pool work outlives the call.  Every kernel works one
    matrix at a time, so neither the chunk size nor the pool moves a bit.
    """
    if intervals < 1 or steps < 1:
        raise ValueError("intervals and steps must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    grid, stages, h = _substep_grid(family.horizon, intervals, steps, scheme)
    n = family.dim
    unitaries = np.empty((intervals + 1, n, n), dtype=complex)
    unitaries[0] = np.eye(n)
    defects = np.empty(intervals + 1)
    slots = list(unitaries)
    prev = slots[0]
    targets = iter(slots[1:])
    start, stop = 0, 1  # the products whose defect is still to be taken
    dot = np.dot  # bound once: the loop below makes one call per substep
    chunks = _step_factors(family, stages, 1j * h, steps)
    with contextlib.closing(chunks):  # an error here stops the chunks still computing
        for factors in chunks:
            substeps = iter(factors)
            for factor in substeps:
                slot = next(targets)
                dot(factor, prev, out=slot)
                for _ in range(1, steps):
                    dot(next(substeps), slot, out=slot)
                prev = slot
            stop += len(factors) // steps
            defects[start:stop] = _defects(unitaries[start:stop])
            start = stop
    warnings: tuple[str, ...] = ()
    cost = intervals * steps * n**3
    if cost > COST_BUDGET:
        warnings = (
            f"propagation cost {cost:.2e} (substeps x dim^3) exceeds the "
            f"budget {COST_BUDGET:.0e}; consider fewer steps or smaller families",
        )
    return Propagator(
        family_label=family.label,
        grid=grid,
        unitaries=unitaries,
        defects=defects,
        step_scheme=scheme,
        steps_per_interval=steps,
        warnings=warnings,
    )


def evolved_projections(
    family: OperatorFamily,
    propagator: Propagator,
    times,
    *,
    tau_0: float = TAU_ZERO,
) -> tuple[np.ndarray, list[int]]:
    """The evolved spectral projections ``Q(0, t) P_<0(t) Q(t, 0)`` at grid times, as one stack.

    Returns the read-only ``(K, n, n)`` stack and the rank of each
    projection.  The times other than ``T`` are evaluated in one
    ``at_many``, decomposed in one :func:`~apsflow.matrixcore.eigh_stack`
    and cut into projections checked as one stack; at ``T`` it reads the
    family's kept ``negative_projection(1, tau_0)``.  All are conjugated
    by their unitaries in one stacked product, and the results are checked
    as one stack again (Hermiticity, idempotency, trace).
    """
    ks = [propagator.index_of(t) for t in times]
    grid_times = propagator.grid[ks]
    at_end = grid_times == family.horizon
    base = np.empty((len(ks), family.dim, family.dim), dtype=complex)
    ranks = np.empty(len(ks), dtype=int)
    if not at_end.all():
        spectra = eigh_stack(family.at_many(grid_times[~at_end]))
        base[~at_end], ranks[~at_end] = spectral_projections(spectra, NEGATIVE_AXIS, tau_0=tau_0)
    if at_end.any():
        end = family.negative_projection(1, tau_0)
        base[at_end], ranks[at_end] = end.matrix.entries, end.rank
    u = propagator.unitaries[ks]
    ranks = ranks.tolist()
    return projection_stack(np.conj(u).swapaxes(-1, -2) @ base @ u, ranks), ranks


def closed_form_swap_propagator(lambda1: float, lambda2: float, t: float) -> np.ndarray:
    """Exact propagator ``q(t, 0)`` of one eigenline-swapping 2x2 block (quintic ramp).

    Analytically unitary for every ``t`` in [0, 1]; at ``t = 1`` it is
    off-diagonal, carrying ``e1`` into the span of ``e2``, whatever the ramp.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    phi = quintic_profile().value(t)
    c, s = math.cos(phi), math.sin(phi)
    e1 = np.exp(1j * lambda1 * t)
    e2 = np.exp(1j * lambda2 * t)
    return np.array([[e1 * c, -e1 * s], [e2 * s, e2 * c]])


def closed_form_counterexample_propagator(lambdas, t: float) -> np.ndarray:
    """Blockwise closed-form propagator of the direct-sum swapping family."""
    lam = np.asarray(lambdas, dtype=float)
    out = np.zeros((2 * lam.size, 2 * lam.size), dtype=complex)
    for i, l in enumerate(lam):
        out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = closed_form_swap_propagator(-l, l, t)
    return out


@dataclass(frozen=True)
class NonunitaryPropagator:
    """The transfer matrix ``R(T, 0)`` of the decaying equation and its condition number."""

    family_label: str
    transfer: np.ndarray  # (n, n)
    condition: float  # sigma_max / sigma_min of ``transfer``
    warnings: tuple[str, ...] = ()


def nonunitary_propagate(
    family: OperatorFamily, intervals: int = 512
) -> tuple[NonunitaryPropagator, NonunitaryPropagator]:
    """Integrate ``dR/dt = -A(t) R`` for ``family`` and its time reversal, in one loop.

    Shooting's pair, the only non-unitary chain: the kernel shot of
    ``family`` and the cokernel shot of ``family.time_reversed()``, with
    one exponential midpoint step per interval.  Holds the stiffness gate:
    ``StiffnessError`` when ``norm_bound() * T`` exceeds
    ``STIFFNESS_BOUND``, because beyond it the growth ``exp(+-||A|| T)`` of
    the unnormalized product leaves double-precision range.  The gate reads
    only ``family``'s ``norm_bound()``: the reversal's samples are the same
    matrices at mirrored times.

    The two chains are multiplied on the calling thread with one
    ``np.matmul`` per step on the ``(2, n, n)`` pair of products, which
    multiplies each chain's matrices exactly as a loop of its own would,
    into the other of two buffers.
    The factors come from :func:`_mirrored_factors`: the reversal borrows
    ``family``'s step exponential wherever its generator equals
    ``family``'s at the mirrored step bit for bit, for which ``family``'s
    ``K`` factors and one flag per step are held during the call; each
    family's midpoints are evaluated once, and the reversal's again only in
    a chunk where some step differs.  Returns the pair of end products
    ``R(T, 0)``, each with its condition number ``sigma_max / sigma_min``
    from one SVD and a warning when that number exceeds ``1e12``; neither
    the partial products nor the factors are kept, and no unitarity defect
    is taken (the unitary ones are :func:`propagate`'s, taken per chunk).
    """
    stiffness = family.norm_bound() * family.horizon
    if stiffness > STIFFNESS_BOUND:
        raise StiffnessError(
            f"||A|| * T = {stiffness:.3g} exceeds the stiffness bound "
            f"{STIFFNESS_BOUND:g}; shrink the horizon or the spectrum"
        )
    reversal = family.time_reversed()
    _, (times,), h = _substep_grid(family.horizon, intervals, 1, SCHEME_MIDPOINT)
    prev = np.stack([np.eye(family.dim, dtype=complex)] * 2)
    spare = np.empty_like(prev)
    for factors in _mirrored_factors(family, reversal, times, -h):
        for factor in factors:
            np.matmul(factor, prev, out=spare)
            prev, spare = spare, prev
    return _nonunitary_result(family, prev[0]), _nonunitary_result(reversal, prev[1])


def _nonunitary_result(family: OperatorFamily, end: np.ndarray) -> NonunitaryPropagator:
    """One chain's end product with its condition number and warning."""
    transfer = end.copy()
    sigma = np.linalg.svd(transfer, compute_uv=False)
    condition = float(sigma[0] / np.maximum(sigma[-1], np.finfo(float).tiny))
    warnings: tuple[str, ...] = ()
    if condition > CONDITION_WARNING:
        warnings = (
            f"non-unitary propagator condition number reaches {condition:.3e} "
            f"(> {CONDITION_WARNING:.0e}); kernel counts may be unreliable",
        )
    return NonunitaryPropagator(
        family_label=family.label,
        transfer=transfer,
        condition=condition,
        warnings=warnings,
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """Richardson refinement study of propagator accuracy."""

    family_label: str
    scheme: str
    steps: tuple[int, ...]
    deviations: tuple[float, ...]
    ratios: tuple[float, ...]
    expected_ratio: float

    def to_dict(self) -> dict:
        return {
            "family": self.family_label,
            "scheme": self.scheme,
            "steps": list(self.steps),
            "deviations": list(self.deviations),
            "ratios": list(self.ratios),
            "expected_ratio": self.expected_ratio,
        }


def convergence_study(family: OperatorFamily, *, scheme: str = SCHEME_MIDPOINT) -> ConvergenceStudy:
    """Measure the convergence order of ``Q(T, 0)`` under step halving.

    The step counts are ``CONVERGENCE_STEPS`` (64 to 512, each twice the
    last).  Deviations are taken against a single reference at
    ``REFERENCE_MULTIPLIER`` times the finest grid; successive ratios should
    approach 4 for the midpoint scheme and 16 for the fourth-order scheme.
    """
    reference = propagate(family, CONVERGENCE_STEPS[-1] * REFERENCE_MULTIPLIER, scheme=scheme)
    ref = reference.unitaries[-1]
    deviations = []
    for c in CONVERGENCE_STEPS:
        p = propagate(family, c, scheme=scheme)
        deviations.append(float(np.linalg.norm(p.unitaries[-1] - ref, 2)))
    ratios = tuple(
        deviations[j] / deviations[j + 1] if deviations[j + 1] > 0 else math.inf
        for j in range(len(deviations) - 1)
    )
    return ConvergenceStudy(
        family_label=family.label,
        scheme=scheme,
        steps=CONVERGENCE_STEPS,
        deviations=tuple(deviations),
        ratios=ratios,
        expected_ratio=4.0 if scheme == SCHEME_MIDPOINT else 16.0,
    )


def propagator_to_payload(propagator: Propagator) -> dict:
    """JSON-ready dump: grid plus flattened complex entries (re/im pairs)."""
    u = propagator.unitaries
    flat = np.stack([u.real, u.imag], axis=-1).reshape(u.shape[0], -1)
    return {
        "family_label": propagator.family_label,
        "step_scheme": propagator.step_scheme,
        "steps_per_interval": propagator.steps_per_interval,
        "dim": propagator.dim,
        "grid": [float(t) for t in propagator.grid],
        "unitaries_re_im": [[float(x) for x in row] for row in flat],
    }


def propagator_from_payload(payload: dict) -> Propagator:
    """Rebuild a propagator from :func:`propagator_to_payload` output.

    This is the import path for replaying an externally computed propagator
    through the index pipeline; every invariant of :class:`Propagator`
    (grid, ``U_0 = I``, unitarity) is checked again, nothing is repaired.
    The defects are computed as :func:`propagate` computes them, one chunk
    of unitaries at a time.
    """
    grid = np.asarray(payload["grid"], dtype=float)
    n = int(payload["dim"])
    flat = np.asarray(payload["unitaries_re_im"], dtype=float).reshape(-1, n, n, 2)
    unitaries = flat[..., 0] + 1j * flat[..., 1]
    defects = np.empty(len(unitaries))
    chunk = _chunk_length(n)
    for k in range(0, len(unitaries), chunk):
        defects[k : k + chunk] = _defects(unitaries[k : k + chunk])
    return Propagator(
        family_label=str(payload.get("family_label", "imported")),
        grid=grid,
        unitaries=unitaries,
        defects=defects,
        step_scheme=str(payload.get("step_scheme", SCHEME_MIDPOINT)),
        steps_per_interval=int(payload.get("steps_per_interval", 1)),
    )


def write_propagator(propagator: Propagator, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(propagator_to_payload(propagator), fh, sort_keys=True)
        fh.write("\n")


def read_propagator(path) -> Propagator:
    with open(path, encoding="utf-8") as fh:
        return propagator_from_payload(json.load(fh))
