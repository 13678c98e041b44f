"""Structure-preserving propagators.

The unitary propagator integrates ``dU/dt = i A(t) U`` with exponential
one-step maps (each step is the exponential of a skew-Hermitian matrix,
computed through the eigendecomposition of the Hermitian generator, hence
exactly unitary up to eigensolver error).  Two schemes are provided: a
midpoint-exponential (second order) default and a fourth-order
commutator-free composition for accuracy studies.  A non-unitary variant
integrates the decaying equation ``dR/dt = -A(t) R`` under a stiffness
guard and keeps only the end transfer ``R(T, 0)`` and its condition number,
which is all that shooting reads.  Both run one streamed integrator loop:
generators are evaluated, exponentiated and multiplied into the products in
chunks of at most ``STEP_CHUNK_BYTES`` per stage, so a propagation holds
its stored products plus a small fixed buffer.  The loop multiplies a stack
of independent chains with one matrix product per step: shooting propagates
a family and its time reversal in one call, and the reversal borrows the
forward step exponentials where the mirrored generators agree bit for bit.
The 2x2 eigenline-swapping blocks admit a closed-form propagator which
serves as an exact oracle for everything else.  The rest of the module
reads propagators: evolved spectral projections, convergence studies, and
the propagator file format.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

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


def _unitarity_defect(u: np.ndarray) -> float:
    """Max entry of ``U_k* U_k - I`` over the stack, taken chunk by chunk."""
    eye = np.eye(u.shape[-1])
    chunk = _chunk_length(u.shape[-1])
    return max(
        float(np.max(np.abs(_gram(c) - eye)))
        for c in (u[start : start + chunk] for start in range(0, u.shape[0], chunk))
    )


@dataclass(frozen=True)
class Propagator:
    """Unitaries ``U_k ~ Q(t_k, 0)`` on a time grid.

    The grid is 1-D and finite, holds one time per unitary, starts at
    exactly 0 and increases strictly; ``U_0`` is exactly the identity and
    every ``U_k`` is unitary within ``UNITARITY_ATOL`` (all validated at
    construction).  ``Q(t, s)`` between grid points is recovered as
    ``U_t U_s*``.
    """

    family_label: str
    grid: np.ndarray
    unitaries: np.ndarray  # (K+1, n, n)
    step_scheme: str
    steps_per_interval: int
    warnings: tuple[str, ...] = ()
    _defect: float = field(init=False, repr=False, compare=False)

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
        defect = _unitarity_defect(u)
        if defect > UNITARITY_ATOL:
            raise ConsistencyError(
                f"propagator unitarity defect {defect:.3e} exceeds {UNITARITY_ATOL:.1e}"
            )
        object.__setattr__(self, "_defect", defect)

    @property
    def dim(self) -> int:
        return self.unitaries.shape[-1]

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def unitarity_defect(self) -> float:
        """Max entry of ``U_k* U_k - I`` over the grid, computed at construction."""
        return self._defect

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
    composed, for CF4) before the next chunk is evaluated.
    """
    chunk = _chunk_length(family.dim, steps) * steps
    for start in range(0, len(stages[0]), chunk):
        gens = [family.at_many(times[start : start + chunk]) for times in stages]
        if len(gens) == 1:
            yield _expi_hermitian_batch(gens[0], exponent)
        else:
            a1, a2 = gens
            first = _expi_hermitian_batch(_CF4_ALPHA * a1 + _CF4_BETA * a2, exponent)
            second = _expi_hermitian_batch(_CF4_BETA * a1 + _CF4_ALPHA * a2, exponent)
            yield np.einsum("kij,kjl->kil", second, first)


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


def _transfer_products(
    families: tuple[OperatorFamily, ...],
    intervals: int,
    steps: int,
    scheme: str,
    factor_sign: complex,
    *,
    keep_all: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """The uniform grid and the time-ordered step-factor products of each chain at its points.

    The one integrator loop of :func:`propagate` and
    :func:`nonunitary_propagate`.  It multiplies ``C = len(families)``
    (one or two) independent chains at once: one ``np.matmul`` per step on
    a ``(C, n, n)`` slot, which multiplies each chain's matrices exactly as
    a loop of its own would, and one ``np.dot`` per step on the ``(n, n)``
    slot of one chain, the same BLAS product bit for bit.  The substep times
    are computed once from the first family's horizon; the factors come in
    chunks of at most ``STEP_CHUNK_BYTES`` of generators per stage
    (:func:`_step_factors`), each multiplied into the products before the
    next chunk is evaluated.  Every kernel works one matrix at a time, so
    the chunk size changes no bit.  A second family (midpoint scheme, one
    substep) is the first one's time reversal and borrows its factors at the
    mirrored steps (:func:`_mirrored_factors`).  With ``keep_all`` the
    result is the ``(intervals + 1, ...)`` stack of products; without it,
    only the end product, from a two-slot ring.
    """
    first, *reversal = families
    grid = np.linspace(0.0, first.horizon, intervals + 1)
    sub = np.linspace(grid[0], grid[-1], intervals * steps + 1)
    # the times use the linspace spacing, the exponents T / (K steps)
    h_sub = float(sub[1] - sub[0])
    exponent = factor_sign * (float(grid[-1] - grid[0]) / (intervals * steps))
    if scheme == SCHEME_MIDPOINT:
        stages = (sub[:-1] + h_sub / 2.0,)
    else:
        stages = (sub[:-1] + (0.5 - _CF4_NODE) * h_sub, sub[:-1] + (0.5 + _CF4_NODE) * h_sub)
    n = first.dim
    shape = (len(families), n, n) if reversal else (n, n)
    products = np.empty((intervals + 1 if keep_all else 2, *shape), dtype=complex)
    products[0] = np.eye(n)
    slots = list(products)
    prev = slots[0]
    targets = iter(slots[1:]) if keep_all else itertools.cycle(slots[::-1])
    if reversal:
        chunks = _mirrored_factors(first, *reversal, stages[0], exponent)
    else:
        chunks = _step_factors(first, stages, exponent, steps)
    # one chain: np.dot makes matmul's cblas_zgemm call with less overhead per step
    multiply = np.matmul if reversal else np.dot
    for factors in chunks:
        substeps = iter(factors)
        for factor in substeps:
            slot = next(targets)
            multiply(factor, prev, out=slot)
            for _ in range(1, steps):
                multiply(next(substeps), slot, out=slot)
            prev = slot
    return grid, products if keep_all else prev


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
    """
    if intervals < 1 or steps < 1:
        raise ValueError("intervals and steps must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    grid, unitaries = _transfer_products((family,), intervals, steps, scheme, 1j)
    warnings: tuple[str, ...] = ()
    cost = intervals * steps * family.dim**3
    if cost > COST_BUDGET:
        warnings = (
            f"propagation cost {cost:.2e} (substeps x dim^3) exceeds the "
            f"budget {COST_BUDGET:.0e}; consider fewer steps or smaller families",
        )
    return Propagator(
        family_label=family.label,
        grid=grid,
        unitaries=unitaries,
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
    family: OperatorFamily | tuple[OperatorFamily, OperatorFamily], intervals: int = 512
) -> NonunitaryPropagator | tuple[NonunitaryPropagator, NonunitaryPropagator]:
    """Integrate ``dR/dt = -A(t) R`` with one exponential midpoint step per interval.

    Holds the stiffness gate: ``StiffnessError`` when ``norm_bound() * T``
    exceeds ``STIFFNESS_BOUND``, because beyond it the growth
    ``exp(+-||A|| T)`` of the unnormalized product leaves double-precision
    range.  Multiplies the step factors in the integrator loop that
    :func:`propagate` uses, and returns only the end product ``R(T, 0)``
    with its condition number ``sigma_max / sigma_min`` from one SVD; a
    warning is attached when that number exceeds ``1e12``.  Neither the
    partial products ``R(t_k, 0)`` nor, for one family, the step factors
    are kept.

    ``family`` may also be a tuple: a family followed by its time reversal,
    as shooting passes it.  The chains are then multiplied in one loop and a
    tuple of propagators comes back, each with the bytes its own call would
    give.  The reversal borrows the first family's step exponential wherever
    its generator equals the first one's at the mirrored step bit for bit,
    for which the first family's ``K`` factors and one flag per step are
    held during the call; each family's midpoints are evaluated once, and
    the reversal's again only in a chunk where some step differs.
    The gate reads only the first family's ``norm_bound()``: the reversal's
    samples are the same matrices at mirrored times.
    """
    families = family if isinstance(family, tuple) else (family,)
    if isinstance(family, tuple) and len(family) != 2:
        raise ValueError(f"expected a family or a pair of families, got {len(family)}")
    first = families[0]
    stiffness = first.norm_bound() * first.horizon
    if stiffness > STIFFNESS_BOUND:
        raise StiffnessError(
            f"||A|| * T = {stiffness:.3g} exceeds the stiffness bound "
            f"{STIFFNESS_BOUND:g}; shrink the horizon or the spectrum"
        )
    _, end = _transfer_products(families, intervals, 1, SCHEME_MIDPOINT, -1.0, keep_all=False)
    ends = end if isinstance(family, tuple) else end[None]
    results = tuple(_nonunitary_result(f, e) for f, e in zip(families, ends))
    return results if isinstance(family, tuple) else results[0]


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


def convergence_study(
    family: OperatorFamily,
    *,
    scheme: str = SCHEME_MIDPOINT,
    base_intervals: int = 64,
    halvings: int = 3,
) -> ConvergenceStudy:
    """Measure the convergence order of ``Q(T, 0)`` under step halving.

    Deviations are taken against a single reference at
    ``REFERENCE_MULTIPLIER`` times the finest grid; successive ratios should
    approach 4 for the midpoint scheme and 16 for the fourth-order scheme.
    """
    counts = [base_intervals * 2**j for j in range(halvings + 1)]
    reference = propagate(family, counts[-1] * REFERENCE_MULTIPLIER, scheme=scheme)
    ref = reference.unitaries[-1]
    deviations = []
    for c in counts:
        p = propagate(family, c, scheme=scheme)
        deviations.append(float(np.linalg.norm(p.unitaries[-1] - ref, 2)))
    ratios = tuple(
        deviations[j] / deviations[j + 1] if deviations[j + 1] > 0 else math.inf
        for j in range(len(deviations) - 1)
    )
    return ConvergenceStudy(
        family_label=family.label,
        scheme=scheme,
        steps=tuple(counts),
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
    """
    grid = np.asarray(payload["grid"], dtype=float)
    n = int(payload["dim"])
    flat = np.asarray(payload["unitaries_re_im"], dtype=float).reshape(-1, n, n, 2)
    unitaries = flat[..., 0] + 1j * flat[..., 1]
    return Propagator(
        family_label=str(payload.get("family_label", "imported")),
        grid=grid,
        unitaries=unitaries,
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
