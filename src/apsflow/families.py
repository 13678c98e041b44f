"""Time-dependent Hermitian operator families and their constructors.

An :class:`OperatorFamily` is a Hermitian-matrix-valued function of time on
``[0, T]`` together with its derivative.  This module provides the concrete
builders used throughout: constant and linear families, diagonal paths,
the 2x2 eigenline-swapping blocks and their block-diagonal direct sums,
piecewise-linear ingestion of sampled data, and the endpoint-regularizing
perturbation that pushes endpoint kernels into the positive spectrum.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, DimensionMismatchError, FamilyConstructionError
from .matrixcore import (
    NEGATIVE_AXIS,
    TAU_ZERO,
    HermitianMatrix,
    Projection,
    SpectralData,
    eigh,
    hermitian_stack,
    snap_eigenvalues,
    spectral_projection,
)

DERIVATIVE_CHECK_STEP = 1e-4
_VALIDATION_SAMPLES = 9
NORM_SAMPLES = 65  # uniform times behind every norm_bound, hence every stiffness gate
SAMPLED_HERMITICITY_ATOL = 1e-10  # sampled data is read from files: looser than 1e-12
CLOCK_ATOL = 1e-12  # times this far outside [0, T] are read at the nearest end


# ---------------------------------------------------------------------------
# phase profiles for the swapping blocks


@dataclass(frozen=True)
class PhaseProfile:
    """A smooth ramp from 0 to pi/2 on [0, 1] with vanishing endpoint slope."""

    name: str
    value: Callable[[float], float]
    slope: Callable[[float], float]
    curvature: Callable[[float], float]


def quintic_profile() -> PhaseProfile:
    """Quintic smoothstep ramp; max slope 15*pi/16 (about 2.95)."""
    half_pi = math.pi / 2.0

    def value(t: float) -> float:
        return half_pi * (6 * t**5 - 15 * t**4 + 10 * t**3)

    def slope(t: float) -> float:
        return half_pi * 30.0 * t * t * (1.0 - t) ** 2

    def curvature(t: float) -> float:
        return half_pi * (120 * t**3 - 180 * t**2 + 60 * t)

    return PhaseProfile("quintic", value, slope, curvature)


def capped_slope_profile() -> PhaseProfile:
    """Smoothed-trapezoid ramp with max slope exactly 2.

    The slope ramps up over ``[0, r]``, plateaus at 2, and ramps down over
    ``[1-r, 1]`` with ``r = 1 - pi/4`` so the total rise is pi/2.
    """
    r = 1.0 - math.pi / 4.0

    def s(x: float) -> float:
        return 6 * x**5 - 15 * x**4 + 10 * x**3

    def sp(x: float) -> float:
        return 30.0 * x * x * (1.0 - x) ** 2

    def big_s(x: float) -> float:  # integral of s from 0
        return x**6 - 3 * x**5 + 2.5 * x**4

    def value(t: float) -> float:
        if t <= r:
            return 2.0 * r * big_s(t / r)
        if t <= 1.0 - r:
            return r + 2.0 * (t - r)
        return math.pi / 2.0 - 2.0 * r * big_s((1.0 - t) / r)

    def slope(t: float) -> float:
        if t <= r:
            return 2.0 * s(t / r)
        if t <= 1.0 - r:
            return 2.0
        return 2.0 * s((1.0 - t) / r)

    def curvature(t: float) -> float:
        if t <= r:
            return 2.0 * sp(t / r) / r
        if t <= 1.0 - r:
            return 0.0
        return -2.0 * sp((1.0 - t) / r) / r

    return PhaseProfile("capped-slope", value, slope, curvature)


_PROFILES = {"quintic": quintic_profile, "capped-slope": capped_slope_profile}


# ---------------------------------------------------------------------------
# the family type


Times = float | np.ndarray  # one time, or a 1-D array of K times
Evaluator = Callable[[Times], np.ndarray]


def _column(t: Times) -> np.ndarray:
    """Times shaped to scale matrices: ``(K, 1, 1)`` for K times, ``(1, 1)`` for one."""
    return np.asarray(t, dtype=float)[..., None, None]


def _held(m: np.ndarray, t: Times) -> np.ndarray:
    """The matrix ``m`` at every time of ``t`` (a read-only broadcast view)."""
    return np.broadcast_to(m, np.shape(t) + m.shape)


def _pointwise(fn: Callable[[float], object], t: Times) -> np.ndarray:
    """``fn`` applied to one Python float at a time, stacked in the shape of ``t``.

    For scalar coefficients (``math`` calls, Python complex arithmetic,
    branches) whose array form could round differently.
    """
    times = np.asarray(t, dtype=float)
    values = np.array([fn(s) for s in times.ravel().tolist()])
    return values.reshape(times.shape + values.shape[1:])


def _evaluate(fn: Evaluator, times: Times, dim: int, label: str, error: type) -> np.ndarray:
    """``fn(times)`` as a complex array of shape ``times.shape + (dim, dim)``, else ``error``."""
    expected = np.shape(times) + (dim, dim)
    try:
        out = np.asarray(fn(times), dtype=complex)
    except (TypeError, ValueError) as exc:
        raise error(
            f"family {label!r}: evaluator failed on an array of {np.size(times)} times "
            f"({exc}); evaluators take a float or a 1-D array of times"
        ) from exc
    if out.shape != expected:
        raise error(
            f"family {label!r}: evaluator returned shape {out.shape} for times of shape "
            f"{np.shape(times)}, expected {expected}; evaluators take a float or a 1-D "
            "array of times"
        )
    return out


@dataclass(frozen=True)
class OperatorFamily:
    """A Hermitian-matrix-valued function of time on ``[0, T]``.

    ``eval_fn`` and ``derivative_fn`` take either one float ``t``, returning
    the ``(n, n)`` matrix at ``t``, or a 1-D float array of K times,
    returning the ``(K, n, n)`` stack in one call.  Both forms must agree
    bit for bit.  Times reach them already clamped to ``[0, T]``.  Flow
    certificates bound eigenvalue speeds by the sampled ``||A'(t)||``
    (Weyl), so ``derivative_fn`` is required.  ``eval_fn`` may be called
    from a worker thread of the propagator, two calls at once on disjoint
    time arrays, so an evaluator must not mutate shared state; every
    evaluator the package builds only reads what it closes over.

    ``smoothness`` distinguishes genuinely smooth families from
    piecewise-differentiable interpolants; it decides only whether
    construction compares the derivative with a finite difference.
    """

    dim: int
    horizon: float
    label: str
    eval_fn: Evaluator
    derivative_fn: Evaluator
    smoothness: str = "smooth"  # smooth | piecewise
    construction_warnings: tuple[str, ...] = ()

    def _clock(self, t: Times) -> Times:
        """Range-check and clamp times: a float gives a float, an array an array."""
        times = np.asarray(t, dtype=float)
        outside = (times < -CLOCK_ATOL) | (times > self.horizon + CLOCK_ATOL)
        if np.any(outside):
            raise ValueError(f"time {float(times[outside][0])} outside [0, {self.horizon}]")
        times = np.minimum(np.maximum(times, 0.0), self.horizon)
        return times if np.ndim(times) else float(times)

    def at(self, t: float) -> HermitianMatrix:
        return HermitianMatrix(self.eval_fn(self._clock(t)))

    def derivative_at(self, t: float) -> HermitianMatrix:
        return HermitianMatrix(self._derivative()(self._clock(t)))

    def at_many(self, ts) -> np.ndarray:
        """The read-only ``(K, n, n)`` stack of ``at(t).entries`` for ``t`` in ``ts``.

        One evaluator call on the whole array of times; the Hermiticity
        check runs once over the whole stack.
        """
        times = self._clock(np.asarray(ts, dtype=float))
        return hermitian_stack(
            _evaluate(self.eval_fn, times, self.dim, self.label, DimensionMismatchError)
        )

    def derivative_at_many(self, ts) -> np.ndarray:
        """The stack of ``derivative_at(t).entries`` for ``t`` in ``ts``.

        Every flow certificate reads ``A'`` here.
        """
        derivative = self._derivative()
        times = self._clock(np.asarray(ts, dtype=float))
        return hermitian_stack(
            _evaluate(derivative, times, self.dim, self.label, DimensionMismatchError)
        )

    def _derivative(self) -> Evaluator:
        """``derivative_fn``; :class:`FamilyConstructionError` when it is ``None``."""
        if self.derivative_fn is None:
            raise FamilyConstructionError(f"family {self.label!r} has no derivative")
        return self.derivative_fn

    # Facts computed once per instance live in the instance's ``_memo``
    # (:meth:`_computed_once`), not in fields: ``replace`` copies compute them
    # again, and equality and ``asdict`` do not see them.  Every value kept
    # is read-only.

    def norm_bound(self) -> float:
        """Max spectral norm over ``NORM_SAMPLES`` uniform times, computed once per instance."""

        def sampled_max() -> float:
            ts = np.linspace(0.0, self.horizon, NORM_SAMPLES)
            return float(np.max(np.abs(np.linalg.eigvalsh(self.at_many(ts)))))

        return self._computed_once(("norm_bound",), sampled_max)

    @property
    def endpoint_spectra(self) -> tuple[SpectralData, SpectralData]:
        """``eigh(at(0))`` and ``eigh(at(T))``, computed once per instance.

        Every boundary condition is a spectral projection of these two
        matrices, so every route reads this one pair.
        """
        return self._computed_once(
            ("endpoint_spectra",), lambda: (eigh(self.at(0.0)), eigh(self.at(self.horizon)))
        )

    def negative_projection(self, end: int, tau_0: float = TAU_ZERO) -> Projection:
        """``P_<0`` of ``A(0)`` (``end`` 0) or of ``A(T)`` (``end`` 1).

        Computed once per instance and ``tau_0``, cut from
        ``endpoint_spectra``; the projection keeps its ``range_basis`` once
        asked for.  The flow check, the transport main
        check and the projection route of one family all read these two.
        """
        return self._computed_once(
            ("negative_projection", end, tau_0),
            lambda: spectral_projection(self.endpoint_spectra[end], NEGATIVE_AXIS, tau_0=tau_0),
        )

    def _computed_once(self, key: tuple, compute: Callable[[], object]):
        """``compute()`` on the first call with ``key``, the same object after.

        ``key`` names the computation and every tolerance its result
        depends on.  An exception is not kept: the next call computes again.
        """
        memo = self.__dict__.setdefault("_memo", {})
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def time_reversed(self) -> "OperatorFamily":
        """``s -> A(T - s)`` with derivative ``-A'(T - s)``; no derivative stays ``None``."""
        ev = self.eval_fn
        dv = self.derivative_fn
        horizon = self.horizon
        return replace(
            self,
            label=f"{self.label}(reversed)",
            eval_fn=lambda s: ev(horizon - s),
            derivative_fn=None if dv is None else lambda s: -dv(horizon - s),
        )


def _norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _validated_family(
    dim: int,
    horizon: float,
    label: str,
    eval_fn: Evaluator,
    derivative_fn: Evaluator,
    *,
    smoothness: str = "smooth",
    extra_warnings: tuple[str, ...] = (),
) -> OperatorFamily:
    """Run construction checks and assemble the family.

    Hermiticity is enforced at sampled times.  When the family is smooth,
    its derivative is compared against a symmetric finite
    difference; the allowed defect is ``C h^2`` with ``C`` estimated from
    second differences (plus a roundoff floor).  A failure is a construction
    warning (``family_from_spec(..., strict=True)`` turns it into an error).
    An evaluator that does not return the ``(K, n, n)`` stack for an array
    of times raises :class:`FamilyConstructionError`.
    """
    if horizon <= 0:
        raise FamilyConstructionError(f"horizon must be positive, got {horizon}")
    warnings = list(extra_warnings)

    def evaluate(fn: Evaluator, times: np.ndarray) -> np.ndarray:
        return _evaluate(fn, times, dim, label, FamilyConstructionError)

    ts = np.linspace(0.0, horizon, _VALIDATION_SAMPLES)
    hermitian_stack(evaluate(eval_fn, ts))  # raises if non-Hermitian beyond tolerance

    if smoothness == "smooth":
        h = min(DERIVATIVE_CHECK_STEP, horizon / 1000.0)
        interior = np.linspace(h, horizon - h, 5)
        values = evaluate(eval_fn, np.concatenate([interior + h, interior - h, interior]))
        derivatives = evaluate(derivative_fn, interior)
        worst = 0.0
        worst_tol = 1.0
        for plus, minus, here, derivative in zip(*values.reshape(3, -1, dim, dim), derivatives):
            fd = (plus - minus) / (2.0 * h)
            second = (plus - 2.0 * here + minus) / (h * h)
            c = 10.0 * max(_norm(second), 1.0)
            tol = c * h * h + 1e-8 * (1.0 + _norm(here))
            defect = _norm(fd - derivative)
            if defect / tol > worst / worst_tol:
                worst, worst_tol = defect, tol
        if worst > worst_tol:
            warnings.append(
                f"family {label!r}: derivative disagrees with finite difference "
                f"(defect {worst:.3e} > allowance {worst_tol:.3e})"
            )

    return OperatorFamily(
        dim=dim,
        horizon=float(horizon),
        label=label,
        eval_fn=eval_fn,
        derivative_fn=derivative_fn,
        smoothness=smoothness,
        construction_warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# builders


def constant_family(a0: HermitianMatrix, horizon: float, *, label: str | None = None) -> OperatorFamily:
    """The family ``A(t) = A0`` with identically zero derivative."""
    entries = a0.entries
    zero = np.zeros_like(entries)
    return _validated_family(
        a0.dim,
        horizon,
        label or "constant",
        lambda t: _held(entries, t),
        lambda t: _held(zero, t),
    )


def linear_family(
    a0: HermitianMatrix,
    b: HermitianMatrix,
    horizon: float,
    *,
    label: str | None = None,
) -> OperatorFamily:
    """The family ``A(t) = A0 + t B`` with derivative ``B``."""
    if a0.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {a0.dim} vs {b.dim}")
    ea, eb = a0.entries, b.entries
    return _validated_family(
        a0.dim,
        horizon,
        label or "linear",
        lambda t: ea + _column(t) * eb,
        lambda t: _held(eb, t),
    )


def diagonal_path_family(
    start,
    end,
    horizon: float,
    *,
    label: str | None = None,
) -> OperatorFamily:
    """Diagonal family with entries moving linearly from ``start`` to ``end``."""
    d0 = np.asarray(start, dtype=float)
    d1 = np.asarray(end, dtype=float)
    if d0.ndim != 1 or d0.shape != d1.shape:
        raise DimensionMismatchError(
            f"start/end must be equal-length vectors, got {d0.shape} and {d1.shape}"
        )
    a0 = HermitianMatrix(np.diag(d0))
    b = HermitianMatrix(np.diag((d1 - d0) / horizon))
    return linear_family(a0, b, horizon, label=label or "diagonal-path")


def _coupling(beta: np.ndarray) -> np.ndarray:
    """The 2x2 matrices ``[[0, beta], [conj(beta), 0]]``, one per entry of ``beta``."""
    out = np.zeros(beta.shape + (2, 2), dtype=complex)
    out[..., 0, 1] = beta
    out[..., 1, 0] = np.conj(beta)
    return out


def _swap_block_entries(lambda1: float, lambda2: float, profile: PhaseProfile):
    delta = lambda1 - lambda2
    a = np.diag([lambda1, lambda2]).astype(complex)

    def beta(t: float) -> complex:
        return 1j * profile.slope(t) * np.exp(1j * delta * t)

    def beta_slope(t: float) -> complex:
        return 1j * (profile.curvature(t) + 1j * delta * profile.slope(t)) * np.exp(1j * delta * t)

    def eval_fn(t: Times) -> np.ndarray:
        return a + _coupling(_pointwise(beta, t))

    def deriv_fn(t: Times) -> np.ndarray:
        return _coupling(_pointwise(beta_slope, t))

    return eval_fn, deriv_fn


def swap_block_family(
    lambda1: float, lambda2: float, *, profile: PhaseProfile | None = None
) -> OperatorFamily:
    """A 2x2 family on [0, 1] whose evolution swaps the two eigenlines.

    ``A(t) = diag(l1, l2) + b(t)`` where the off-diagonal perturbation
    ``b`` vanishes at both endpoints and is driven by a phase ramp from 0
    to pi/2.  The endpoint spectra are unchanged but transport carries
    ``e1`` into the span of ``e2``; in closed form the evolution is given
    by :func:`apsflow.evolution.closed_form_swap_propagator`.
    """
    profile = profile or quintic_profile()
    eval_fn, deriv_fn = _swap_block_entries(lambda1, lambda2, profile)
    return _validated_family(2, 1.0, f"swap-block({lambda1:g},{lambda2:g})", eval_fn, deriv_fn)


def counterexample_family(lambdas, *, profile: PhaseProfile | None = None) -> OperatorFamily:
    """Block-diagonal direct sum of swapping blocks ``diag(-l_i, +l_i)``.

    Every block's evolution exchanges its negative and positive eigenlines,
    so the boundary-value kernel and cokernel both grow linearly with the
    number of blocks while the index and the spectral flow stay zero.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ConfigError("lambdas must be a nonempty 1-d array")
    if np.any(lam <= 0):
        raise ConfigError(f"lambdas must be strictly positive, got {lam.tolist()}")
    if np.any(np.diff(lam) < 0):
        raise ConfigError(f"lambdas must be ascending, got {lam.tolist()}")
    profile = profile or quintic_profile()
    blocks = [_swap_block_entries(-l, l, profile) for l in lam]
    m = lam.size
    dim = 2 * m

    def direct_sum(t: Times, part: int) -> np.ndarray:
        out = np.zeros(np.shape(t) + (dim, dim), dtype=complex)
        for i, block in enumerate(blocks):
            out[..., 2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = block[part](t)
        return out

    return _validated_family(
        dim,
        1.0,
        f"counterexample(m={m})",
        lambda t: direct_sum(t, 0),
        lambda t: direct_sum(t, 1),
    )


# ---------------------------------------------------------------------------
# endpoint regularization


def _bump(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return math.exp(-1.0 / x)


def _plateau(u: float) -> float:
    """Smooth monotone step: 0 for u <= 0, 1 for u >= 1."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    a = _bump(u)
    b = _bump(1.0 - u)
    return a / (a + b)


def _plateau_slope(u: float) -> float:
    if u <= 0.0 or u >= 1.0:
        return 0.0
    a = _bump(u)
    b = _bump(1.0 - u)
    ap = a / (u * u)
    bp = b / ((1.0 - u) * (1.0 - u))
    return (ap * b + a * bp) / (a + b) ** 2


def kernel_projection(
    h: HermitianMatrix | SpectralData, *, tau_0: float = TAU_ZERO
) -> np.ndarray:
    """Orthogonal projection onto the (snapped) kernel of ``h`` or of its decomposition."""
    s = h if isinstance(h, SpectralData) else eigh(h)
    keep = snap_eigenvalues(s.eigenvalues, tau_0) == 0.0
    v = s.eigenvectors[:, keep]
    return v @ v.conj().T


def endpoint_regularize(
    family: OperatorFamily,
    epsilon: float = 0.1,
    *,
    tau_0: float = TAU_ZERO,
) -> OperatorFamily:
    """Push endpoint kernels into the strictly positive spectrum.

    Adds ``chi(t) P0(A(0)) + chi(T - t) P0(A(T))`` where ``P0`` projects
    onto the snapped kernel and ``chi`` is a smooth plateau bump that is
    identically 1 on ``[0, eps*T/3]`` and supported in ``[0, eps*T)``.  The
    family is returned unchanged (same object) when both endpoint kernels
    are trivial; otherwise it agrees with the input exactly outside the
    two bump windows, has invertible endpoints, and keeps both the spectral
    flow and the boundary-value index of the original family.
    """
    if not 0.0 < epsilon < 0.5:
        raise ConfigError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    t_end = family.horizon
    p_left, p_right = (kernel_projection(s, tau_0=tau_0) for s in family.endpoint_spectra)
    rank_left = int(round(float(np.real(np.trace(p_left)))))
    rank_right = int(round(float(np.real(np.trace(p_right)))))
    if rank_left == 0 and rank_right == 0:
        return family

    window = epsilon * t_end
    scale = 2.0 * window / 3.0

    def chi(t: float) -> float:
        return _plateau((window - t) / scale)

    def chi_slope(t: float) -> float:
        return -_plateau_slope((window - t) / scale) / scale

    ev = family.eval_fn
    dv = family._derivative()

    def eval_fn(t: Times) -> np.ndarray:
        left = _column(_pointwise(chi, t))
        right = _column(_pointwise(lambda s: chi(t_end - s), t))
        return ev(t) + left * p_left + right * p_right

    def deriv_fn(t: Times) -> np.ndarray:
        left = _column(_pointwise(chi_slope, t))
        right = _column(_pointwise(lambda s: chi_slope(t_end - s), t))
        return dv(t) + left * p_left - right * p_right

    return _validated_family(
        family.dim,
        t_end,
        f"{family.label}+endpoint-regularized",
        eval_fn,
        deriv_fn,
        smoothness=family.smoothness,
        extra_warnings=family.construction_warnings,
    )


# ---------------------------------------------------------------------------
# sampled data


def sampled_family(times, matrices) -> OperatorFamily:
    """Piecewise-linear interpolation of Hermitian samples in time.

    Entrywise linear interpolation preserves Hermiticity; the derivative is
    the piecewise-constant slope (right-continuous at the knots).  The
    result is only piecewise-differentiable, which is flagged as a
    construction warning since downstream flow certificates assume a
    continuously differentiable family between samples.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 2:
        raise ConfigError("need at least two sample times")
    if abs(ts[0]) > 1e-12:
        raise ConfigError(f"sample times must start at 0, got {ts[0]}")
    if np.any(np.diff(ts) <= 0):
        raise ConfigError("sample times must be strictly increasing")
    mats = [HermitianMatrix(m, atol=SAMPLED_HERMITICITY_ATOL).entries for m in matrices]
    if len(mats) != ts.size:
        raise DimensionMismatchError(f"{ts.size} times but {len(mats)} matrices")
    dim = mats[0].shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise DimensionMismatchError("sampled matrices have inconsistent dimensions")
    stack = np.stack(mats)
    horizon = float(ts[-1])

    def knot(t: Times):
        """Index of the sample interval holding each time."""
        return np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.size - 2)

    def eval_fn(t: Times) -> np.ndarray:
        j = knot(t)
        w = _column((t - ts[j]) / (ts[j + 1] - ts[j]))
        return (1.0 - w) * stack[j] + w * stack[j + 1]

    def deriv_fn(t: Times) -> np.ndarray:
        j = knot(t)
        return (stack[j + 1] - stack[j]) / _column(ts[j + 1] - ts[j])

    return _validated_family(
        dim,
        horizon,
        f"sampled({ts.size} knots)",
        eval_fn,
        deriv_fn,
        smoothness="piecewise",
        extra_warnings=(
            "sampled family is piecewise-C1: interpolation is linear between "
            "knots and the derivative jumps at knots",
        ),
    )


# ---------------------------------------------------------------------------
# declarative family descriptions and serialization

FAMILY_KINDS = (
    "constant",
    "linear",
    "diagonal-path",
    "swap-block",
    "counterexample",
    "custom-samples",
)


@dataclass(frozen=True)
class FamilySpec:
    """Declarative description of a family, as written in experiment configs."""

    kind: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ConfigError(f"unknown family kind {self.kind!r}; expected one of {FAMILY_KINDS}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "parameters": dict(self.parameters)}


def matrix_to_pairs(entries) -> list:
    """Row-major nested list of ``[re, im]`` pairs."""
    a = np.asarray(entries, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def matrix_from_pairs(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    if a.ndim != 3 or a.shape[2] != 2:
        raise ConfigError(f"expected an n x n x 2 array of (re, im) pairs, got shape {a.shape}")
    return a[..., 0] + 1j * a[..., 1]


def _matrix_param(params: dict, key: str) -> HermitianMatrix:
    if key in params:
        return HermitianMatrix(matrix_from_pairs(params[key]))
    diag_key = f"{key}_diagonal"
    if diag_key in params:
        return HermitianMatrix(np.diag(np.asarray(params[diag_key], dtype=float)))
    raise ConfigError(f"family parameters need {key!r} (re/im pairs) or {diag_key!r}")


def family_from_spec(spec: FamilySpec, *, strict: bool = False) -> OperatorFamily:
    """Construct the family described by ``spec``.

    Malformed parameters (a missing key, a value of the wrong type or
    shape, a non-Hermitian matrix, an unreadable sample file) raise
    :class:`ConfigError`.  Under ``strict``, construction warnings
    (derivative mismatches, piecewise smoothness flags) become errors.
    """
    try:
        family = _family_from_spec_params(spec.kind, dict(spec.parameters))
    except KeyError as exc:
        raise ConfigError(f"family kind {spec.kind!r} is missing parameter {exc}") from exc
    except (ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"family kind {spec.kind!r}: {exc}") from exc
    if strict and family.construction_warnings:
        raise FamilyConstructionError(
            f"family {family.label!r} carries construction warnings under strict "
            f"mode: {'; '.join(family.construction_warnings)}"
        )
    return family


def _profile_param(p: dict) -> PhaseProfile:
    name = p.get("profile", "quintic")
    if name not in _PROFILES:
        raise ConfigError(f"unknown profile {name!r}; expected one of {tuple(_PROFILES)}")
    return _PROFILES[name]()


def _family_from_spec_params(kind: str, p: dict) -> OperatorFamily:
    if kind == "constant":
        return constant_family(_matrix_param(p, "matrix"), float(p.get("horizon", 1.0)))
    if kind == "linear":
        return linear_family(
            _matrix_param(p, "a0"),
            _matrix_param(p, "b"),
            float(p.get("horizon", 1.0)),
        )
    if kind == "diagonal-path":
        return diagonal_path_family(p["start"], p["end"], float(p.get("horizon", 1.0)))
    if kind == "swap-block":
        profile = _profile_param(p)
        return swap_block_family(float(p["lambda1"]), float(p["lambda2"]), profile=profile)
    if kind == "counterexample":
        profile = _profile_param(p)
        lambdas = p.get("lambdas")
        if lambdas is None:
            lambdas = np.arange(1, int(p["m"]) + 1, dtype=float)
        return counterexample_family(lambdas, profile=profile)
    if kind == "custom-samples":
        if "path" in p:
            times, mats = read_sample_series(p["path"])
        else:
            times = p["times"]
            mats = [matrix_from_pairs(m) for m in p["matrices"]]
        return sampled_family(times, mats)
    raise ConfigError(f"unhandled family kind {kind!r}")


def write_sample_series(path, times, matrices) -> None:
    """Write a matrix time series (JSON or CSV chosen by extension).

    JSON holds ``{"times": [...], "matrices": [pairs...]}``; CSV has one
    record per time point with columns ``t, re_0_0, im_0_0, re_0_1, ...``
    in row-major order.
    """
    path = str(path)
    ts = [float(t) for t in times]
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if path.endswith(".json"):
        payload = {"times": ts, "matrices": [matrix_to_pairs(m) for m in mats]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        return
    n = mats[0].shape[0]
    header = ["t"]
    for j in range(n):
        for k in range(n):
            header += [f"re_{j}_{k}", f"im_{j}_{k}"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, m in zip(ts, mats):
            row = [repr(t)]
            for j in range(n):
                for k in range(n):
                    row += [repr(float(m[j, k].real)), repr(float(m[j, k].imag))]
            writer.writerow(row)


def read_sample_series(path) -> tuple[np.ndarray, list[np.ndarray]]:
    """Read a matrix time series written by :func:`write_sample_series`."""
    path = str(path)
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        for key in ("times", "matrices"):
            if key not in payload:
                raise ConfigError(f"sample file {path} has no {key!r} entry")
        times = np.asarray(payload["times"], dtype=float)
        mats = [matrix_from_pairs(m) for m in payload["matrices"]]
        return times, mats
    times = []
    mats = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"sample file {path} is empty")
        n = int(round(math.sqrt((len(header) - 1) / 2)))
        if 1 + 2 * n * n != len(header):
            raise ConfigError(f"CSV header of {path} does not describe a square complex matrix")
        for row in reader:
            if not row:
                continue  # csv.reader's row for a blank line
            if len(row) != len(header):
                raise ConfigError(
                    f"sample file {path} line {reader.line_num}: {len(row)} columns, "
                    f"the header has {len(header)}"
                )
            times.append(float(row[0]))
            vals = np.asarray(row[1:], dtype=float)
            mats.append(vals[0::2].reshape(n, n) + 1j * vals[1::2].reshape(n, n))
    return np.asarray(times), mats
