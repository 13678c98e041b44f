import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from apsflow.errors import DimensionMismatchError
from apsflow.evolution import SCHEME_MIDPOINT
from apsflow.families import OperatorFamily, linear_family
from apsflow.matrixcore import TAU_ANGLE, TAU_ZERO, HermitianMatrix, Subspace
from apsflow.spectralflow import spectral_flow


@pytest.fixture
def rng():
    return np.random.default_rng(20240521)


def random_hermitian_entries(n, rng, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / (4.0 * np.sqrt(n)) * scale


def hermitian_stack_full_check(a, *, atol=1e-12):
    """``hermitian_stack`` that runs every check on every stack: the oracle of its fast path."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3:
        raise DimensionMismatchError(f"expected a stack of matrices, got shape {a.shape}")
    if a.shape[1] != a.shape[2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape[1:]}")
    if a.shape[1] == 0:
        raise DimensionMismatchError("matrix dimension must be positive")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    adjoint = a.conj().swapaxes(1, 2)
    scale = 1.0 + np.max(np.abs(a), axis=(1, 2))
    deviation = np.max(np.abs(a - adjoint), axis=(1, 2))
    bad = np.flatnonzero(deviation > atol * scale)
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"matrix is not Hermitian: max |H - H*| = {deviation[k]:.3e} "
            f"exceeds {atol:.1e} * {scale[k]:.3e}"
        )
    sym = (a + adjoint) / 2.0
    sym.setflags(write=False)
    return sym


def random_projection(n, rank, rng):
    """Orthogonal projection of the given rank from a Haar-ish random frame."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    v = q[:, :rank]
    from apsflow.matrixcore import Projection

    return Projection(HermitianMatrix(v @ v.conj().T), rank)


def random_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def flow_plus_one(spectral_flow):
    """A stand-in for ``spectral_flow`` whose every value is one too high."""

    def shifted(*args, **kwargs):
        rep = spectral_flow(*args, **kwargs)
        return replace(rep, value=rep.value + 1, per_segment_terms=(*rep.per_segment_terms, 1))

    return shifted


def diag_at(t, *entries):
    """``diag(entries)`` under the evaluator contract of ``OperatorFamily``.

    ``t`` is one float or a 1-D array of K times; each entry is a number or
    an array shaped like ``t``.  Returns ``(n, n)`` or ``(K, n, n)``.
    """
    d = np.stack(np.broadcast_arrays(np.asarray(t, dtype=float), *entries)[1:], axis=-1)
    out = np.zeros(d.shape + d.shape[-1:], dtype=complex)
    idx = np.arange(d.shape[-1])
    out[..., idx, idx] = d
    return out


def negative_count(family, t):
    """The number of eigenvalues of ``A(t)`` below ``-TAU_ZERO``."""
    w = np.linalg.eigvalsh(family.at(t).entries)
    return int(np.count_nonzero(w < -TAU_ZERO))


def _diag(*vals):
    return HermitianMatrix(np.diag(np.asarray(vals, dtype=float)))


def _tangent_touch():
    # eigenvalue (t - 1/2)^2 touches zero at the checkpoint t = 1/2
    return OperatorFamily(
        dim=1,
        horizon=1.0,
        label="tangent-touch",
        eval_fn=lambda t: diag_at(t, (t - 0.5) ** 2),
        derivative_fn=lambda t: diag_at(t, 2.0 * (t - 0.5)),
    )


# eigenvalues that meet zero exactly at checkpoint times of an 8-point check
HARD_CHECKPOINT_FAMILIES = {
    "crossing-at-checkpoint": lambda: linear_family(_diag(-0.5), _diag(1.0), 1.0),
    "tangent-touch": _tangent_touch,
    "pinned-zero": lambda: linear_family(_diag(0.0, -0.5), _diag(0.0, 1.0), 1.0),
    "two-crossings": lambda: linear_family(_diag(-0.25, 0.75), _diag(1.0, -1.0), 1.0),
}


def subspace_intersection(u, v):
    """Orthonormal basis of ``U ∩ V`` via principal angles, the tests' reference.

    Directions whose principal cosine is at least ``1 - TAU_ANGLE`` are kept.
    An empty intersection is returned as a ``k = 0`` subspace.  The index
    routes count the cosines of ``principal_cosines`` against the same cut.
    """
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dims differ: {u.ambient_dim} vs {v.ambient_dim}"
        )
    m = u.basis.conj().T @ v.basis
    if min(m.shape) == 0:
        return Subspace.empty(u.ambient_dim)
    lu, s, _ = np.linalg.svd(m)
    keep = np.clip(s, 0.0, 1.0) >= 1.0 - TAU_ANGLE
    return Subspace(u.ambient_dim, u.basis @ lu[:, : int(np.count_nonzero(keep))])


def q_between(propagator, t, s):
    """``Q(t, s) = U_t U_s*`` for grid times ``t`` and ``s``."""
    u = propagator.unitaries
    return u[propagator.index_of(t)] @ u[propagator.index_of(s)].conj().T


def restricted(family, t0, t1):
    """``family`` on ``[t0, t1]``, reparametrized to start at 0."""
    ev, dv = family.eval_fn, family.derivative_fn
    return replace(
        family,
        horizon=t1 - t0,
        label=f"{family.label}|[{t0:g},{t1:g}]",
        eval_fn=lambda s: ev(t0 + s),
        derivative_fn=lambda s: dv(t0 + s),
    )


def _conjugated(family, label, path):
    """``t -> U(t)* A(t) U(t)`` with its exact derivative ``U* (A' + i [A, K]) U``.

    ``path(t)`` returns ``(U(t), K(t))`` with ``dU/dt = i K U`` at ``t``: one
    matrix each for one float, stacks for a 1-D array of times (a constant
    generator may stay one matrix).
    """
    ev, dv = family.eval_fn, family.derivative_fn

    def eval_fn(t):
        u, _ = path(t)
        return np.conj(u).swapaxes(-1, -2) @ ev(t) @ u

    def derivative_fn(t):
        u, k = path(t)
        a = ev(t)
        return np.conj(u).swapaxes(-1, -2) @ (dv(t) + 1j * (a @ k - k @ a)) @ u

    return replace(family, label=label, eval_fn=eval_fn, derivative_fn=derivative_fn)


def _exponential(s, w, v):
    """``exp(i s K)`` for ``K = v diag(w) v*``; ``s`` broadcasts against the leading axes of ``w``."""
    phases = np.exp(1j * np.asarray(s, dtype=float)[..., None] * w)
    return (v * phases[..., None, :]) @ np.conj(v).swapaxes(-1, -2)


def evolved_family(family, propagator):
    """``t -> U(t)* A(t) U(t)`` for ``U(t) = exp(i (t - t_k) A(m_k)) U_k`` on step ``[t_k, t_{k+1}]``.

    The oracle of acceptance criterion 8.  ``U_k`` are the unitaries of a
    one-substep midpoint ``propagator`` and ``m_k`` the step midpoints, so
    ``U`` follows the propagator's steps continuously (up to roundoff at
    the grid times) and the family has the pointwise spectrum of ``family``,
    the same flow and the exact derivative ``U* (A' + i [A, A(m_k)]) U``.
    """
    if propagator.step_scheme != SCHEME_MIDPOINT or propagator.steps_per_interval != 1:
        raise ValueError("the evolved family follows one midpoint step per interval")
    grid, u = propagator.grid, propagator.unitaries
    mids = (grid[:-1] + grid[1:]) / 2.0

    def path(t):
        k = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, grid.size - 2)
        generator = family.at_many(np.ravel(mids[k])).reshape(np.shape(k) + u.shape[1:])
        w, v = np.linalg.eigh(generator)
        return _exponential(t - grid[k], w, v) @ u[k], generator

    return _conjugated(family, f"{family.label}(evolved)", path)


def unitary_conjugated_family(family, generator, start):
    """``t -> U(t)* A(t) U(t)`` for ``U(t) = exp(i t K) U_0``, ``K`` Hermitian and constant."""
    k = np.asarray(generator, dtype=complex)
    w, v = np.linalg.eigh(k)
    u0 = np.asarray(start, dtype=complex)
    return _conjugated(
        family, f"{family.label}(conjugated)", lambda t: (_exponential(t, w, v) @ u0, k)
    )


def conjugation_flows(family, conjugated):
    """The flows of ``family`` and ``conjugated``, and their largest spectrum deviation.

    The spectra are compared at 33 uniform times.
    """
    ts = np.linspace(0.0, family.horizon, 33)
    w = np.linalg.eigvalsh(family.at_many(ts))
    w_conj = np.linalg.eigvalsh(conjugated.at_many(ts))
    deviation = float(np.max(np.abs(w - w_conj), initial=0.0))
    return spectral_flow(family).value, spectral_flow(conjugated).value, deviation


def _source_samples(g, grid, n):
    if g is None:
        return np.zeros((grid.size, n), dtype=complex)
    return np.array([g(t) for t in grid.tolist()], dtype=complex)


def cauchy_solve(propagator, s, x, g=None):
    """``f(t) = Q(t, s) x + int_s^t Q(t, r) g(r) dr`` on the propagator grid, as ``(K+1, n)``.

    The oracle of acceptance criterion 9: it solves ``df/dt - i A(t) f = g``
    with ``f(s) = x`` through the trapezoid rule on the pulled-back source
    ``U_k* g(t_k)``, signed for ``t < s``.  ``g`` is ``None`` (no source) or
    a callable of one time.
    """
    grid, u = propagator.grid, propagator.unitaries
    ks = propagator.index_of(s)
    pulled = np.einsum("kji,kj->ki", u.conj(), _source_samples(g, grid, propagator.dim))
    trapezoids = np.diff(grid)[:, None] * (pulled[:-1] + pulled[1:]) / 2.0
    integral = np.concatenate([np.zeros_like(pulled[:1]), np.cumsum(trapezoids, axis=0)])
    coeff = u[ks].conj().T @ np.asarray(x, dtype=complex) + (integral - integral[ks])
    return np.einsum("kij,kj->ki", u, coeff)


def cauchy_residual(family, grid, f, g=None):
    """The largest midpoint residual of ``df/dt - i A f = g`` over the grid steps.

    Step ``k`` has ``(f_{k+1} - f_k)/h - i A(t_{k+1/2}) (f_k + f_{k+1})/2 -
    (g_k + g_{k+1})/2``; refining the grid shrinks it at second order.
    """
    gs = _source_samples(g, grid, f.shape[1])
    mids = family.at_many((grid[:-1] + grid[1:]) / 2.0)
    res = (
        (f[1:] - f[:-1]) / np.diff(grid)[:, None]
        - 1j * np.einsum("kij,kj->ki", mids, f[:-1] + f[1:]) / 2.0
        - (gs[:-1] + gs[1:]) / 2.0
    )
    return float(np.max(np.linalg.norm(res, axis=1)))


def faulty_eigh(monkeypatch, target, fault):
    """``np.linalg.eigh`` of stacks, ``fault(w, v)`` applied to each matrix equal to ``target``.

    ``fault`` returns the corrupted ``(w, v)`` of that matrix, or raises.
    """
    original = np.linalg.eigh

    def eigh_with_fault(a):
        w, v = original(a)
        for k, m in enumerate(a):
            if np.array_equal(m, target):
                w[k], v[k] = fault(w[k].copy(), v[k].copy())
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", eigh_with_fault)


def numpy_peak(fn):
    """``fn()`` and the peak of traced allocations (numpy buffers included) while it ran."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
