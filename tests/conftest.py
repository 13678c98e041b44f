import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from apsflow.errors import DimensionMismatchError
from apsflow.families import OperatorFamily, linear_family
from apsflow.matrixcore import TAU_ANGLE, TAU_ZERO, HermitianMatrix, Subspace


@pytest.fixture
def rng():
    return np.random.default_rng(20240521)


def random_hermitian_entries(n, rng, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / (4.0 * np.sqrt(n)) * scale


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
