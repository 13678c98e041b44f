"""Dense Hermitian linear algebra kernels.

Eigendecompositions, spectral projections and subspaces for the two
half-line cuts, relative indices of projection pairs, principal cosines
between subspaces, and thresholded ranks with kernel/cokernel dimensions.
Everything here is a pure function on immutable values; all other modules
build on these.

Numerical conventions
---------------------
* An eigenvalue with ``|lambda| <= tau_0`` (default ``TAU_ZERO``) is
  snapped to exactly zero and therefore belongs to ``[0, inf)`` and not
  ``(-inf, 0)``.
* Rank decisions use singular values: relative threshold
  ``tau_rank * sigma_max`` for general matrices, absolute threshold for
  restrictions of projections (whose singular values live in ``[0, 1]``).
* In finite dimensions every projection pair is a Fredholm pair and the
  relative index collapses to ``rank(P) - rank(Q)``; this identity is
  asserted on every call rather than treated as a discovery.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    AmbiguousSpectralCutError,
    ConsistencyError,
    DimensionMismatchError,
    EigendecompositionError,
)

HERMITICITY_ATOL = 1e-12
ORTHONORMALITY_ATOL = 1e-10
IDEMPOTENCY_ATOL = 1e-10
TRACE_ATOL = 1e-8
TAU_GAP = 1e-7
TAU_RANK_RELATIVE = 1e-10


@dataclass(frozen=True)
class ToleranceSet:
    """The thresholds a config may set; these defaults are their only definitions."""

    tau_0: float = 1e-9  # eigenvalues this close to zero count as zero
    tau_rank: float = 1e-8  # absolute cut on endpoint projection restrictions
    gamma_min: float = 1e-6  # least clearance of a flow-partition level
    tau_angle: float = 1e-9  # principal-cosine cut of transport subspaces
    sigma_cut: float = 1e-4  # rank cut on propagated restrictions
    shooting_angle_tol: float = 1e-6  # principal-cosine cut of shot subspaces


_DEFAULTS = ToleranceSet()
TAU_ZERO = _DEFAULTS.tau_0
TAU_RANK_PAIR = _DEFAULTS.tau_rank
GAMMA_MIN = _DEFAULTS.gamma_min
TAU_ANGLE = _DEFAULTS.tau_angle
SIGMA_CUT = _DEFAULTS.sigma_cut
SHOOTING_ANGLE_TOL = _DEFAULTS.shooting_angle_tol


def _matrix_hash(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def hermitian_stack(a, *, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Check a ``(K, n, n)`` stack of Hermitian matrices in one vectorized pass.

    Every matrix must be finite and deviate from its adjoint by at most
    ``atol * (1 + max|a_k|)``; the first offending matrix raises.  Returns
    the read-only stack of Hermitian parts ``(a_k + a_k*)/2``.

    A stack equal to its adjoint bit for bit (``a - a*`` all zero) passes
    at once, without the finiteness and deviation passes: a NaN or
    infinite entry always leaves a non-zero (or NaN) entry in ``a - a*``,
    and a zero deviation is within any ``atol >= 0`` (the package passes
    only its positive constants).  Every other stack
    takes the full check, so the result and every error are the same on
    both paths.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3:
        raise DimensionMismatchError(f"expected a stack of matrices, got shape {a.shape}")
    if a.shape[1] != a.shape[2]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape[1:]}")
    if a.shape[1] == 0:
        raise DimensionMismatchError("matrix dimension must be positive")
    adjoint = a.conj().swapaxes(1, 2)
    with np.errstate(invalid="ignore", over="ignore"):  # the full check warns as before
        exact = not (a - adjoint).any()
    if not exact:
        _check_hermitian(a, adjoint, atol)
    sym = (a + adjoint) / 2.0
    sym.setflags(write=False)
    return sym


def _check_hermitian(a: np.ndarray, adjoint: np.ndarray, atol: float) -> None:
    """The finiteness and deviation checks of :func:`hermitian_stack`."""
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    scale = 1.0 + np.max(np.abs(a), axis=(1, 2))
    deviation = np.max(np.abs(a - adjoint), axis=(1, 2))
    bad = np.flatnonzero(deviation > atol * scale)
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"matrix is not Hermitian: max |H - H*| = {deviation[k]:.3e} "
            f"exceeds {atol:.1e} * {scale[k]:.3e}"
        )


class HermitianMatrix:
    """A square complex matrix symmetrized to be exactly Hermitian.

    Construction checks that the input deviates from its adjoint by at most
    ``atol`` (scaled by the matrix magnitude) and then stores the Hermitian
    part ``(H + H*)/2`` with write access disabled; :func:`hermitian_stack`
    does both.
    """

    __slots__ = ("entries",)

    def __init__(self, entries, *, atol: float = HERMITICITY_ATOL):
        a = np.asarray(entries, dtype=complex)
        if a.ndim != 2:
            raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
        self.entries = hermitian_stack(a[None], atol=atol)[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim}, hash={_matrix_hash(self.entries)})"


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending) and orthonormal eigenvectors of one Hermitian matrix.

    ``eigenvectors[:, j]`` belongs to ``eigenvalues[j]``.  Column phases are
    fixed so the first component of nonnegligible magnitude is real and
    positive, making the decomposition deterministic across runs.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def eigh(h: HermitianMatrix) -> SpectralData:
    """Eigendecomposition of a Hermitian matrix with deterministic phases.

    The one-matrix case of :func:`eigh_stack`, which raises
    ``EigendecompositionError`` as described there.
    """
    return eigh_stack(h.entries[None])[0]


def eigh_stack(a: np.ndarray) -> list[SpectralData]:
    """Eigendecompositions of a ``(K, n, n)`` Hermitian stack from one LAPACK call.

    LAPACK decomposes each matrix of the stack on its own, so every matrix
    gets the bits :func:`eigh` gives it alone.  Phases are fixed and each
    decomposition is validated per matrix.

    Raises
    ------
    EigendecompositionError
        If LAPACK fails to converge, or the reconstruction ``V L V*`` of a
        matrix does not reproduce it at working precision.  The message
        carries a content hash of the first offending matrix.
    """
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        if a.shape[0] > 1:  # name the matrix LAPACK failed on
            for m in a:
                eigh_stack(m[None])
        raise EigendecompositionError(
            f"eigendecomposition failed for matrix {_matrix_hash(a[0])}: {exc}"
        ) from exc
    v = _fix_phases(v)
    adjoint = np.conj(v).swapaxes(1, 2)
    scale = 1.0 + np.abs(w).max(axis=1, initial=0.0)
    ortho = np.abs(adjoint @ v - np.eye(a.shape[-1])).max(axis=(1, 2))
    recon = np.abs((v * w[:, None, :]) @ adjoint - a).max(axis=(1, 2))
    bad = (ortho > ORTHONORMALITY_ATOL) | (recon > ORTHONORMALITY_ATOL * scale)
    if bad.any():
        k = int(bad.argmax())
        raise EigendecompositionError(
            f"eigendecomposition of matrix {_matrix_hash(a[k])} failed validation: "
            f"orthonormality defect {ortho[k]:.3e}, reconstruction defect {recon[k]:.3e}"
        )
    w = w.copy()
    w.setflags(write=False)
    v.setflags(write=False)
    return [SpectralData(eigenvalues=wk, eigenvectors=vk) for wk, vk in zip(w, v)]


def _fix_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column of a ``(K, n, n)`` stack to a real positive pivot.

    The pivot is the column's first nonnegligible component.  The pivot
    search and the rotation run over all columns at once; each column's
    phase stays the numpy scalar ``conj(pivot) / |pivot|``, whose array
    form would round differently.
    """
    k, _, n = v.shape
    mags = np.abs(v)
    rows = (mags > 1e-8 * mags.max(axis=1, keepdims=True)).argmax(axis=1)
    pivots = v[np.arange(k)[:, None], rows, np.arange(n)]
    phases = [p.conjugate() / abs(p) if abs(p) > 0 else 1.0 for p in pivots.ravel()]
    return v * np.array(phases, dtype=complex).reshape(k, 1, n)


# The two spectral cuts the boundary conditions take, named as they print
NEGATIVE_AXIS = "(-inf, 0.0)"
NONNEGATIVE_AXIS = "[0.0, inf)"


def snap_eigenvalues(eigenvalues: np.ndarray, tau_0: float = TAU_ZERO) -> np.ndarray:
    """Replace eigenvalues within ``tau_0`` of zero by exact zero."""
    w = np.asarray(eigenvalues, dtype=float).copy()
    w[np.abs(w) <= tau_0] = 0.0
    return w


def _select_indices(eigenvalues: np.ndarray, axis: str, tau_0: float) -> np.ndarray:
    if axis not in (NEGATIVE_AXIS, NONNEGATIVE_AXIS):
        raise ValueError(f"spectral cut must be NEGATIVE_AXIS or NONNEGATIVE_AXIS, got {axis!r}")
    snapped = snap_eigenvalues(eigenvalues, tau_0)
    # the snapped-zero convention decides membership at 0 exactly
    near = (np.abs(snapped) <= TAU_GAP) & (snapped != 0.0)
    if np.any(near):
        bad = np.asarray(eigenvalues)[near]
        raise AmbiguousSpectralCutError(
            f"eigenvalue(s) {bad.tolist()} lie within {TAU_GAP:.1e} of the "
            f"interval endpoint 0.0 of {axis}"
        )
    negative = snapped < 0.0
    return negative if axis == NEGATIVE_AXIS else ~negative


@dataclass(frozen=True)
class Subspace:
    """An orthonormal basis of a subspace; ``k = 0`` is a first-class value."""

    ambient_dim: int
    basis: np.ndarray  # shape (ambient_dim, k)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"basis shape {b.shape} incompatible with ambient dim {self.ambient_dim}"
            )
        if b.shape[1] > 0:
            defect = float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1]))))
            if defect > ORTHONORMALITY_ATOL:
                raise ValueError(f"basis columns are not orthonormal (defect {defect:.3e})")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def empty(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))

    @classmethod
    def span(cls, vectors) -> "Subspace":
        """Orthonormalize the given column vectors (SVD-based, rank-revealing)."""
        a = np.asarray(vectors, dtype=complex)
        if a.shape[1] == 0:
            return cls.empty(a.shape[0])
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        keep = s > TAU_RANK_RELATIVE * max(s[0], 1e-300)
        return cls(a.shape[0], u[:, keep])


@dataclass(frozen=True)
class Projection:
    """An orthogonal projection matrix together with its integer rank."""

    matrix: HermitianMatrix
    rank: int

    def __post_init__(self):
        _check_projections(self.matrix.entries[None], (self.rank,))

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @functools.cached_property
    def range_basis(self) -> Subspace:
        """Orthonormal basis of the range, from one eigendecomposition per projection."""
        return range_bases(self.matrix.entries[None])[0]


def _check_projections(p: np.ndarray, ranks) -> None:
    """The checks of :class:`Projection` on a ``(K, n, n)`` stack, first offender raising.

    Each matrix must be idempotent and have the trace of its declared rank.
    """
    defects = np.abs(p @ p - p).max(axis=(1, 2))
    for matrix, idem, rank in zip(p, defects, ranks):
        if idem > IDEMPOTENCY_ATOL:
            raise ValueError(f"matrix is not idempotent (defect {idem:.3e})")
        tr = float(np.real(np.trace(matrix)))
        if abs(tr - rank) > TRACE_ATOL:
            raise ValueError(f"trace {tr!r} does not match declared rank {rank}")


def projection_stack(mats, ranks) -> np.ndarray:
    """The Hermitian parts of a ``(K, n, n)`` stack of projections, checked as a stack.

    The checks and errors of :class:`HermitianMatrix` and :class:`Projection`,
    each in one pass over the stack; ``ranks`` are the declared ranks.
    Returns the read-only stack.
    """
    p = hermitian_stack(mats)
    _check_projections(p, ranks)
    return p


def range_bases(p: np.ndarray) -> list[Subspace]:
    """Orthonormal bases of the ranges of a ``(K, n, n)`` stack of projections.

    One :func:`eigh_stack` for the stack; each basis keeps the eigenvectors
    of eigenvalues above 0.5, as :attr:`Projection.range_basis` does.
    """
    return [
        Subspace(p.shape[-1], s.eigenvectors[:, s.eigenvalues > 0.5]) for s in eigh_stack(p)
    ]


def spectral_projection(
    s: SpectralData,
    axis: str,
    *,
    tau_0: float = TAU_ZERO,
) -> Projection:
    """Orthogonal projection onto the spectral subspace of ``axis``.

    ``axis`` is ``NEGATIVE_AXIS`` or ``NONNEGATIVE_AXIS``.  Eigenvalues
    within ``tau_0`` of zero count as exactly zero (so they lie in
    ``[0, inf)`` and not in ``(-inf, 0)``).  Any other eigenvalue within
    ``TAU_GAP`` of zero raises ``AmbiguousSpectralCutError``.
    """
    p, rank = _spectral_matrix(s, axis, tau_0)
    return Projection(HermitianMatrix(p), rank=rank)


def spectral_projections(
    spectra, axis: str, *, tau_0: float = TAU_ZERO
) -> tuple[np.ndarray, list[int]]:
    """The matrices and ranks of :func:`spectral_projection` for several spectra.

    Each ``V_sel V_sel*`` is built on its own (the ranks differ); the stack
    is symmetrized and checked in one :func:`projection_stack`.
    """
    mats, ranks = zip(*(_spectral_matrix(s, axis, tau_0) for s in spectra))
    return projection_stack(np.stack(mats), ranks), list(ranks)


def _spectral_matrix(s: SpectralData, axis: str, tau_0: float) -> tuple[np.ndarray, int]:
    """``V_sel V_sel*`` for the eigenvectors of ``axis``, and their number."""
    select = _select_indices(s.eigenvalues, axis, tau_0)
    v = s.eigenvectors[:, select]
    return v @ v.conj().T, int(np.count_nonzero(select))


def spectral_subspace(
    s: SpectralData,
    axis: str,
    *,
    tau_0: float = TAU_ZERO,
) -> Subspace:
    """Orthonormal eigenbasis of the spectral subspace of ``axis``."""
    select = _select_indices(s.eigenvalues, axis, tau_0)
    return Subspace(s.dim, s.eigenvectors[:, select])


@dataclass(frozen=True)
class IndexReport:
    """Kernel/cokernel dimensions and index, with computation provenance."""

    ker_dim: int
    coker_dim: int
    index: int
    method: str
    diagnostics: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()  # not in to_dict: the check record lists them

    def __post_init__(self):
        if self.index != self.ker_dim - self.coker_dim:
            raise ConsistencyError(
                f"index {self.index} != ker {self.ker_dim} - coker {self.coker_dim}"
            )

    def to_dict(self) -> dict:
        from .reporting import to_jsonable

        return {
            "ker_dim": self.ker_dim,
            "coker_dim": self.coker_dim,
            "index": self.index,
            "method": self.method,
            "diagnostics": to_jsonable(self.diagnostics),
        }


def relative_index(
    p: Projection,
    q: Projection,
    *,
    tau_rank: float = TAU_RANK_PAIR,
) -> IndexReport:
    """Relative index of the projection pair ``(P, Q)``.

    Computed from the singular values of the restriction of ``Q`` to a basis
    of ``Ran(P)`` (with codomain ``Ran(Q)``): singular values ``<= tau_rank``
    count towards the kernel.  In finite dimensions the index always equals
    ``rank(P) - rank(Q)``; that identity is asserted on every call, so a
    violation marks a genuine numerical failure rather than new information.
    """
    if p.dim != q.dim:
        raise DimensionMismatchError(f"ambient dims differ: {p.dim} vs {q.dim}")
    return ranges_relative_index(p.range_basis, p.rank, q.range_basis, q.rank, tau_rank=tau_rank)


def ranges_relative_index(
    range_p: Subspace,
    rank_p: int,
    range_q: Subspace,
    rank_q: int,
    *,
    tau_rank: float = TAU_RANK_PAIR,
) -> IndexReport:
    """:func:`relative_index` of projections given by their range bases and declared ranks."""
    m = range_q.basis.conj().T @ range_p.basis  # restriction map Ran(P) -> Ran(Q)
    sigma = np.linalg.svd(m, compute_uv=False) if min(m.shape) else np.zeros(0)
    rank = int(np.count_nonzero(sigma > tau_rank))
    ker = rank_p - rank
    coker = rank_q - rank
    index = ker - coker
    if index != rank_p - rank_q:
        raise ConsistencyError(
            f"relative index {index} disagrees with rank difference "
            f"{rank_p} - {rank_q}; singular values {sigma.tolist()}"
        )
    return IndexReport(
        ker_dim=ker,
        coker_dim=coker,
        index=index,
        method="projection-pair",
        diagnostics={
            "singular_values": sigma,
            "restriction_rank": rank,
            "tau_rank": tau_rank,
        },
    )


def principal_cosines(u: Subspace, v: Subspace) -> np.ndarray:
    """Cosines of the principal angles between two subspaces (descending)."""
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dims differ: {u.ambient_dim} vs {v.ambient_dim}"
        )
    m = u.basis.conj().T @ v.basis
    if min(m.shape) == 0:
        return np.zeros(0)
    return np.clip(np.linalg.svd(m, compute_uv=False), 0.0, 1.0)


def _raise_qr_failure(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def carried_basis(factors: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``basis`` carried through each factor in turn, re-orthonormalized after every step.

    Each step is ``basis = np.linalg.qr(factor @ basis)[0]`` bit for bit:
    it calls the two gufuncs that ``np.linalg.qr`` calls, ``qr_r_raw`` and
    then ``qr_reduced``, on the product itself, with the wrapper's error
    handling, entered once for the whole loop: a LAPACK failure sets the
    invalid flag, which raises ``LinAlgError`` as it does in
    ``np.linalg.qr``.  It skips only the rest of the wrapper, the copy and
    casts of the product and the assembly of an ``R`` nobody reads.  The
    products must be complex128 (any other dtype would be cast to a copy,
    and ``qr_reduced`` would read the untouched product), and the factors
    finite: the caller checks them before the loop.
    """
    if np.result_type(factors, basis) != np.complex128:
        raise TypeError(
            f"carried_basis factors complex128 products, got {np.result_type(factors, basis)}"
        )
    with np.errstate(call=_raise_qr_failure, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        for factor in factors:
            a = factor @ basis
            tau = _umath_linalg.qr_r_raw(a, signature="D->D")
            basis = _umath_linalg.qr_reduced(a, tau, signature="DD->D")
    return basis


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of a rectangular matrix with kernel/cokernel dimensions."""

    rank: int
    kernel_dim: int
    cokernel_dim: int


def rank_kernel(m, *, tau_rank: float = TAU_RANK_RELATIVE) -> RankReport:
    """SVD-based rank with kernel and cokernel dimensions.

    Rank counts singular values above the relative threshold
    ``tau_rank * sigma_max``; only the singular values are computed.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    rows, cols = a.shape
    if min(rows, cols) == 0:
        return RankReport(0, cols, rows)
    sigma = np.linalg.svd(a, compute_uv=False)
    smax = float(sigma[0])
    rank = int(np.count_nonzero(sigma > tau_rank * smax)) if smax > 0 else 0
    return RankReport(rank=rank, kernel_dim=cols - rank, cokernel_dim=rows - rank)
