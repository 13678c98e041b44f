"""Boundary-value indices of ``d/dt - iA`` and ``d/dt + A`` and their checks.

Two independent routes compute the index of the transport operator
``d/dt - iA`` under spectral boundary conditions (negative subspace at
``t = 0``, nonnegative at ``t = T``): the relative index of the endpoint
projection pair ``(P_<0(0), Q(0,T) P_<0(T) Q(T,0))``, and direct subspace
geometry (principal-angle intersection for the kernel, a restricted-map
rank for the cokernel).  For ``d/dt + A`` the index is computed from a
Crank-Nicolson discretization of the two-point boundary-value problem,
solved by compactification (Cayley steps with a QR per step), and,
independently, by ODE shooting with the non-unitary propagator.

In finite dimensions the index always collapses to
``rank P_<0(0) - rank P_<0(T)`` by dimension counting; the informative
outputs are the kernel and cokernel dimensions separately, their stability
under grid refinement, and the agreement of independent routes.  Rank
decisions on propagated subspaces use a dedicated cut (default
``SIGMA_CUT``) that must dominate the integrator's global error; the
exact-arithmetic defaults of :mod:`apsflow.matrixcore` are far below that
error and would miscount.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    AmbiguousSpectralCutError,
    ConsistencyError,
    DimensionMismatchError,
    StiffnessError,
)
from .families import CLOCK_ATOL, OperatorFamily, endpoint_regularize
from .matrixcore import (
    GAMMA_MIN,
    NEGATIVE_AXIS,
    NONNEGATIVE_AXIS,
    SHOOTING_ANGLE_TOL,
    SIGMA_CUT,
    TAU_ANGLE,
    TAU_ZERO,
    IndexReport,
    Projection,
    Subspace,
    carried_basis,
    principal_cosines,
    range_bases,
    ranges_relative_index,
    spectral_subspace,
)
from .evolution import (
    NonunitaryPropagator,
    Propagator,
    evolved_projections,
    nonunitary_propagate,
)
from .spectralflow import running_flows, spectral_flow

COMPLEMENTARITY_ATOL = 1e-10
DEFAULT_GRID = 64
CAYLEY_ANGLE_TOL = 1e-8  # principal-cosine cut of the compactified boundary-value route
DEFAULT_CHECKPOINTS = 8
SHOOTING_INTERVALS = 512  # steps of each non-unitary chain riemannian_kernel_shooting propagates


@dataclass(frozen=True)
class APSBoundaryData:
    """The boundary subspaces, negative at ``t=0`` and nonnegative at ``t=T``.

    ``left_complement`` (nonnegative at ``t=0``) and ``right_complement``
    (negative at ``t=T``) are the boundary subspaces of the time-reversed
    family, whose ``A(0)`` and ``A(T)`` are this family's ``A(T)`` and ``A(0)``.
    """

    left_subspace: Subspace
    right_subspace: Subspace
    left_complement: Subspace
    right_complement: Subspace

    def __post_init__(self):
        if self.left_subspace.ambient_dim != self.right_subspace.ambient_dim:
            raise DimensionMismatchError("boundary subspaces have different ambient dims")


def aps_boundary_data(family: OperatorFamily, *, tau_0: float = TAU_ZERO) -> APSBoundaryData:
    """Both spectral splits at each end, each validated against its complement.

    Computed once per family object and ``tau_0``, from the family's
    ``endpoint_spectra``: the discretized route at every grid, its
    regularized repeat, shooting, the subspace route and the operator
    export of one family all read the same splits.
    """
    return family._computed_once(
        ("aps_boundary_data", tau_0), lambda: _boundary_splits(family, tau_0)
    )


def _boundary_splits(family: OperatorFamily, tau_0: float) -> APSBoundaryData:
    s0, st = family.endpoint_spectra
    left = spectral_subspace(s0, NEGATIVE_AXIS, tau_0=tau_0)
    right = spectral_subspace(st, NONNEGATIVE_AXIS, tau_0=tau_0)
    left_comp = spectral_subspace(s0, NONNEGATIVE_AXIS, tau_0=tau_0)
    right_comp = spectral_subspace(st, NEGATIVE_AXIS, tau_0=tau_0)
    for a, b in ((left, left_comp), (right, right_comp)):
        if a.dimension + b.dimension != family.dim:
            raise ConsistencyError("boundary subspace dimensions do not complement")
        if a.dimension and b.dimension:
            overlap = float(np.max(np.abs(a.basis.conj().T @ b.basis)))
            if overlap > COMPLEMENTARITY_ATOL:
                raise ConsistencyError(
                    f"boundary subspace overlaps its complement (defect {overlap:.3e})"
                )
    return APSBoundaryData(left, right, left_comp, right_comp)


# ---------------------------------------------------------------------------
# transport operator d/dt - iA


def _require_propagator_of(family: OperatorFamily, propagator: Propagator) -> None:
    """Reject a propagator of another dimension or horizon than ``family``.

    ``DimensionMismatchError`` when the dimensions differ;
    ``ConsistencyError`` when the horizons differ by more than the
    tolerance ``1e-9 * max(1, T)`` of ``Propagator.index_of``, or when the
    propagator's horizon lies more than ``CLOCK_ATOL`` past the family's,
    where the family's clock would refuse to read it.
    """
    if propagator.dim != family.dim:
        raise DimensionMismatchError(
            f"propagator of dimension {propagator.dim} for family {family.label!r} of "
            f"dimension {family.dim}"
        )
    past = propagator.horizon > family.horizon + CLOCK_ATOL
    if past or abs(propagator.horizon - family.horizon) > 1e-9 * max(1.0, propagator.horizon):
        raise ConsistencyError(
            f"propagator on [0, {propagator.horizon}] for family {family.label!r} on "
            f"[0, {family.horizon}]"
        )


def lorentzian_index_projection(
    family: OperatorFamily,
    propagator: Propagator,
    *,
    tau_0: float = TAU_ZERO,
    sigma_cut: float = SIGMA_CUT,
) -> IndexReport:
    """Index of ``d/dt - iA`` on ``[0, T]`` via the endpoint projection pair.

    Returns the relative index of ``(P_<0(0), Q(0,T) P_<0(T) Q(T,0))``; the
    kernel/cokernel dimensions come from the singular values of the
    restricted projection with the propagation-aware ``sigma_cut``.

    ``P_<0(0)`` and ``P_<0(T)`` are the family's kept
    ``negative_projection``, which :func:`lorentzian_main_check` and
    :func:`~apsflow.spectralflow.flowind_check` read too, cut from the
    ``endpoint_spectra`` that :func:`lorentzian_index_subspace` splits: the
    routes always computed them bit for bit alike and now read one copy.
    The pair is the one-time case of the stacked pass the main check runs
    over its checkpoints.  What separates this route from the subspace
    route is unchanged: this route takes the relative index of two
    projections, the other counts principal cosines and the rank of a
    restricted map.  A propagator of another dimension or horizon than
    ``family`` raises (:func:`_require_propagator_of`).
    """
    _require_propagator_of(family, propagator)
    p0 = _start_projection(family, tau_0)
    return _projection_pair_indices(p0, family, propagator, [family.horizon], tau_0, sigma_cut)[0]


@contextlib.contextmanager
def _regularization_advice():
    """Re-raise an ambiguous spectral cut with the advice to regularize."""
    try:
        yield
    except AmbiguousSpectralCutError as exc:
        raise AmbiguousSpectralCutError(
            f"{exc}; apply endpoint_regularize to push the offending "
            "eigenvalue away from the spectral cut"
        ) from exc


def _start_projection(family: OperatorFamily, tau_0: float) -> Projection:
    """``P_<0(0)``, kept per family and ``tau_0``, with the advice to regularize."""
    with _regularization_advice():
        return family.negative_projection(0, tau_0)


def _projection_pair_indices(
    p0: Projection,
    family: OperatorFamily,
    propagator: Propagator,
    times,
    tau_0: float,
    sigma_cut: float,
) -> list[IndexReport]:
    """The projection-pair index of ``(p0, Q(0,t) P_<0(t) Q(t,0))`` at each time, in one pass.

    The evolved projections come as one stack
    (:func:`~apsflow.evolution.evolved_projections`) and their range bases
    from one stacked eigendecomposition; the restriction SVD and the rank
    identity of :func:`~apsflow.matrixcore.relative_index` run per time.
    """
    with _regularization_advice():
        evolved, ranks = evolved_projections(family, propagator, times, tau_0=tau_0)
    reports = []
    for t_end, basis, rank in zip(times, range_bases(evolved), ranks):
        report = ranges_relative_index(p0.range_basis, p0.rank, basis, rank, tau_rank=sigma_cut)
        sigma = report.diagnostics["singular_values"]
        reports.append(
            replace(
                report,
                diagnostics={**report.diagnostics, "t_end": float(t_end), "sigma_cut": sigma_cut},
                warnings=_gray_zone_warnings("projection-pair", t_end, sigma, sigma_cut),
            )
        )
    return reports


def _near_cut(values, cut: float) -> list[float]:
    """The values within a factor of 100 of ``cut``, on either side."""
    values = np.asarray(values)
    return values[(values > cut / 100.0) & (values < cut * 100.0)].tolist()


def _gray_zone_warnings(route: str, t_end: float, sigma, cut: float) -> tuple[str, ...]:
    gray = _near_cut(sigma, cut)
    if not gray:
        return ()
    return (
        f"{route} at t={t_end:g}: singular values {gray} lie near the "
        f"rank cut {cut:.1e}; integer dimensions may be sensitive to propagator accuracy",
    )


def lorentzian_index_subspace(
    family: OperatorFamily,
    propagator: Propagator,
    *,
    tau_0: float = TAU_ZERO,
    tau_angle: float = TAU_ANGLE,
    sigma_cut: float = SIGMA_CUT,
) -> IndexReport:
    """Index of ``d/dt - iA`` on ``[0, T]`` via direct subspace geometry.

    Kernel: dimension of ``H_<0(0) ∩ Q(0,T) H_>=0(T)``, the number of
    reported principal cosines at least ``1 - tau_angle``.
    Cokernel: ``rank P_<0(T)`` minus the rank of ``P_<0(T) Q(T,0)`` restricted
    to ``H_<0(0)``.  Must agree with the projection-pair route exactly.

    The boundary subspaces are the family's :func:`aps_boundary_data`, cut
    from the same ``endpoint_spectra`` that
    :func:`lorentzian_index_projection` reads: the two routes always
    computed these decompositions bit for bit alike and now read one copy.
    What separates them is unchanged: principal cosines and a restricted-map
    rank here, the relative index of a projection pair there.  A propagator
    of another dimension or horizon than ``family`` raises
    (:func:`_require_propagator_of`).
    """
    _require_propagator_of(family, propagator)
    t_end = family.horizon
    u_t = propagator.unitaries[propagator.index_of(t_end)]
    boundary = aps_boundary_data(family, tau_0=tau_0)
    h_neg_0 = boundary.left_subspace
    h_pos_t = boundary.right_subspace
    h_neg_t = boundary.right_complement

    pulled_back = Subspace(family.dim, u_t.conj().T @ h_pos_t.basis)
    cosines = principal_cosines(h_neg_0, pulled_back)
    ker = int(np.count_nonzero(cosines >= 1.0 - tau_angle))

    restricted = h_neg_t.basis.conj().T @ u_t @ h_neg_0.basis
    if min(restricted.shape):
        sigma = np.linalg.svd(restricted, compute_uv=False)
    else:
        sigma = np.zeros(0)
    reach = int(np.count_nonzero(sigma > sigma_cut))
    coker = h_neg_t.dimension - reach

    diagnostics = {
        "t_end": float(t_end),
        "principal_cosines": cosines,
        "restriction_singular_values": sigma,
        "tau_angle": tau_angle,
        "sigma_cut": sigma_cut,
    }
    return IndexReport(
        ker_dim=ker,
        coker_dim=coker,
        index=ker - coker,
        method="subspace-geometry",
        diagnostics=diagnostics,
        warnings=_gray_zone_warnings("subspace-geometry", t_end, sigma, sigma_cut),
    )


@dataclass(frozen=True)
class CheckpointEntry:
    t: float
    index: int
    sfl: int
    ker_dim: int
    coker_dim: int
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class LorentzianMainRecord:
    """Per-checkpoint agreement of the transport index with the spectral flow."""

    family_label: str
    checkpoints: tuple[CheckpointEntry, ...]
    passed: bool
    projection_at_end: IndexReport  # the projection-pair index of the checkpoint at T
    warnings: tuple[str, ...] = ()  # gray-zone warnings of the checkpoint indices

    def to_dict(self) -> dict:
        return {
            "family": self.family_label,
            "check": "lorentzian-main",
            "passed": self.passed,
            "checkpoints": [c.to_dict() for c in self.checkpoints],
            "warnings": list(self.warnings),
        }


def lorentzian_main_check(
    family: OperatorFamily,
    propagator: Propagator,
    *,
    tau_0: float = TAU_ZERO,
    sigma_cut: float = SIGMA_CUT,
    gamma_min: float = GAMMA_MIN,
    raise_on_mismatch: bool = True,
) -> LorentzianMainRecord:
    """Check ``index on [0, t] == spectral flow on [0, t]`` at grid checkpoints.

    The checkpoint set subsamples the grid (``DEFAULT_CHECKPOINTS`` points
    including ``T``); any inequality is a hard failure carrying both
    integers.  The flows come from one certified partition of ``[0, T]``,
    read at every checkpoint by :func:`~apsflow.spectralflow.running_flows`,
    so a family without a certified partition raises
    ``NoAdmissibleLevelError`` where :func:`spectral_flow` of the whole
    family does.  The indices are the projection-pair index at each
    checkpoint, read in one stacked pass (one evaluation, one stacked
    ``eigh`` of the checkpoints before ``T``, one stacked conjugation, one
    stacked ``eigh`` for the range bases) with ``P_<0(0)`` and ``P_<0(T)``
    the family's kept ``negative_projection``; every report has the bytes
    a pass over that checkpoint alone gives.  What separates the two
    integers is unchanged: the flow counts
    eigenvalue samples of ``A`` against levels that a Weyl speed bound
    certifies, and never reads the propagator; the index is the relative
    index of ``P_<0(0)`` and the propagated projection
    ``Q(0,t) P_<0(t) Q(t,0)``, and never reads the partition.  A propagator
    of another dimension or horizon than ``family`` raises
    (:func:`_require_propagator_of`) before any checkpoint is read.
    """
    _require_propagator_of(family, propagator)
    grid_count = propagator.grid.shape[0] - 1
    numbers = range(1, DEFAULT_CHECKPOINTS + 1)
    indices = sorted({max(1, round(j * grid_count / DEFAULT_CHECKPOINTS)) for j in numbers})
    times = [float(propagator.grid[k]) for k in indices]
    p0 = _start_projection(family, tau_0)
    flows = running_flows(family, times, gamma_min=gamma_min, tau_0=tau_0)
    reports = _projection_pair_indices(p0, family, propagator, times, tau_0, sigma_cut)
    entries = [
        CheckpointEntry(
            t=t,
            index=rep.index,
            sfl=sfl,
            ker_dim=rep.ker_dim,
            coker_dim=rep.coker_dim,
            passed=rep.index == sfl,
        )
        for t, sfl, rep in zip(times, flows, reports)
    ]
    record = LorentzianMainRecord(
        family_label=family.label,
        checkpoints=tuple(entries),
        passed=all(e.passed for e in entries),
        projection_at_end=reports[-1],
        warnings=tuple(w for rep in reports for w in rep.warnings),
    )
    if not record.passed and raise_on_mismatch:
        bad = [e for e in entries if not e.passed]
        raise ConsistencyError(
            f"family {family.label!r}: transport index != spectral flow at "
            f"checkpoints {[(e.t, e.index, e.sfl) for e in bad]}",
            record=record,
        )
    return record


# ---------------------------------------------------------------------------
# boundary-value operator d/dt + A


def assemble_discretized_operator(
    family: OperatorFamily,
    grid_intervals: int = DEFAULT_GRID,
    *,
    tau_0: float = TAU_ZERO,
) -> np.ndarray:
    """Assemble the discretized boundary-value operator for ``d/dt + A``.

    Unknowns are the slices ``f_0 ... f_M`` with ``f_0`` constrained to the
    negative subspace of ``A(0)`` and ``f_M`` to the nonnegative subspace of
    ``A(T)`` (the constrained slices are parametrized by orthonormal bases).
    Rows are the Crank-Nicolson equations
    ``(f_{k+1} - f_k)/h + A(t_{k+1/2}) (f_{k+1} + f_k)/2``, so the matrix is
    ``(M n) x (r_left + (M - 1) n + r_right)`` with ``r_left = dim H_<0(0)``
    and ``r_right = dim H_>=0(T)``.  The index route
    never assembles it; it serves ``export operator`` and, in tests, as the
    dense-SVD oracle of :func:`riemannian_index_discretized`.
    """
    if grid_intervals < 4:
        raise ValueError(f"need at least 4 grid intervals, got {grid_intervals}")
    n = family.dim
    m = grid_intervals
    h = family.horizon / m
    boundary = aps_boundary_data(family, tau_0=tau_0)
    b_left = boundary.left_subspace.basis
    b_right = boundary.right_subspace.basis
    r_left = b_left.shape[1]
    r_right = b_right.shape[1]
    cols = r_left + (m - 1) * n + r_right
    op = np.zeros((m * n, cols), dtype=complex)

    def col_block(k: int) -> tuple[int, np.ndarray | None]:
        """Column offset and basis for slice f_k (None = unconstrained)."""
        if k == 0:
            return 0, b_left
        if k == m:
            return r_left + (m - 1) * n, b_right
        return r_left + (k - 1) * n, None

    mids = family.at_many([(k + 0.5) * h for k in range(m)])
    for k, a_mid in enumerate(mids):
        plus = np.eye(n) / h + a_mid / 2.0  # coefficient of f_{k+1}
        minus = -np.eye(n) / h + a_mid / 2.0  # coefficient of f_k
        for coeff, slice_idx in ((minus, k), (plus, k + 1)):
            off, basis = col_block(slice_idx)
            block = coeff if basis is None else coeff @ basis
            width = n if basis is None else basis.shape[1]
            op[k * n : (k + 1) * n, off : off + width] += block
    return op


FROBENIUS_MARGIN = 1.0 + 1e-10  # far above the rounding of a Frobenius norm or an eigvalsh


def _frobenius_bound(mats: np.ndarray) -> float:
    """An upper bound on the largest spectral norm in a ``(K, n, n)`` stack.

    The largest Frobenius norm, from the squares of the real and imaginary
    parts, times ``FROBENIUS_MARGIN``; a sum of squares that overflows
    gives ``inf``.
    """
    with np.errstate(over="ignore"):
        squares = (mats.real**2 + mats.imag**2).sum(axis=(1, 2))
    return float(np.sqrt(squares.max())) * FROBENIUS_MARGIN


def riemannian_index_discretized(
    family: OperatorFamily,
    grid_intervals: int = DEFAULT_GRID,
    *,
    tau_0: float = TAU_ZERO,
) -> IndexReport:
    """Index of ``d/dt + A`` with spectral boundary conditions, by discretization.

    Solves the Crank-Nicolson system of :func:`assemble_discretized_operator`
    by compactification instead of assembling it: each equation gives
    ``f_{k+1} = C_k f_k`` with the Cayley factor
    ``C_k = (I/h + A_k/2)^-1 (I/h - A_k/2)``, so the kernel is the part of
    ``H_<0(0)`` that the product of the ``C_k`` carries into ``H_>=0(T)``.
    The basis of ``H_<0(0)`` is multiplied by one factor at a time and
    re-orthonormalized after every step by the ``Q`` of a reduced QR, taken
    straight from LAPACK (:func:`~apsflow.matrixcore.carried_basis`, the
    same bits as ``np.linalg.qr`` at every step); a step factor that is not
    finite raises ``StiffnessError`` naming the grid before the first step,
    so neither the products nor the SVD of the cosines see it.  The kernel counts the
    principal cosines against ``H_>=0(T)`` that are at least
    ``1 - CAYLEY_ANGLE_TOL``.  The cokernel follows from the dimension count
    ``rows - rank = n - r_left - r_right + ker`` of the same system.

    The one precondition is the grid: the factors have a pole where ``A_k``
    has the eigenvalue ``-2/h`` and are singular where it has ``2/h``, so
    ``grid_intervals < ||A|| * T`` (``||A||`` the larger of ``norm_bound()``
    and the largest norm at the midpoints) raises ``StiffnessError``.  The
    midpoint norms are read from eigenvalues only when the grid fails the
    larger bound with the largest Frobenius norm at the midpoints
    (:func:`_frobenius_bound`), which is at least the spectral norm: where
    that bound passes, the spectral norms pass too.  The
    bound 40 of :func:`nonunitary_propagate` does not apply: it guards the
    unnormalized growth ``exp(+-||A|| T)``, and here the QR after every step
    brings the basis back to norm one.

    What still separates this route from :func:`riemannian_kernel_shooting`:
    Cayley steps where shooting takes exponential steps, the grid
    ``grid_intervals`` where shooting uses 512 intervals, a QR per step where
    shooting takes one product and then one span, its own cut
    ``CAYLEY_ANGLE_TOL`` where shooting uses ``SHOOTING_ANGLE_TOL``, and the
    cokernel by counting where shooting propagates the reversed family a
    second time.

    By dimension counting the index is forced to
    ``rank P_<0(0) - rank P_<0(T)`` regardless of the dynamics; that note is
    recorded in the diagnostics so the equality is not mistaken for a
    numerical discovery.  The informative outputs are the separate kernel
    and cokernel dimensions and their stability in the grid.
    """
    if grid_intervals < 4:
        raise ValueError(f"need at least 4 grid intervals, got {grid_intervals}")
    m = grid_intervals
    n = family.dim
    h = family.horizon / m
    mids = family.at_many([(k + 0.5) * h for k in range(m)])
    # the sampled norm bound can miss a peak between its samples that meets a pole;
    # the midpoint eigenvalues are read only where the Frobenius bound fails the grid
    sampled = family.norm_bound()
    if m < family.horizon * max(sampled, _frobenius_bound(mids)):
        mid_norm = float(np.max(np.abs(np.linalg.eigvalsh(mids))))
        stiffness = family.horizon * max(sampled, mid_norm)
        if m < stiffness:
            raise StiffnessError(
                f"||A|| * T = {stiffness:.3g} exceeds the grid of {m} intervals; "
                "the Crank-Nicolson steps need h ||A|| <= 1, i.e. at least ||A|| * T intervals"
            )
    boundary = aps_boundary_data(family, tau_0=tau_0)
    left = boundary.left_subspace
    right = boundary.right_subspace
    cosines = np.zeros(0)
    if left.dimension and right.dimension:
        eye = np.eye(n) / h
        cayley = np.linalg.solve(eye + mids / 2.0, eye - mids / 2.0)
        if not np.all(np.isfinite(cayley)):
            raise StiffnessError(
                f"the Cayley steps on the grid of {m} intervals carried H_<0(0) "
                "to a non-finite basis; a step factor is not finite"
            )
        cosines = principal_cosines(Subspace(n, carried_basis(cayley, left.basis)), right)
    ker = int(np.count_nonzero(cosines >= 1.0 - CAYLEY_ANGLE_TOL))
    coker = n - left.dimension - right.dimension + ker
    diagnostics = {
        "grid_intervals": m,
        "domain_dim": left.dimension + (m - 1) * n + right.dimension,
        "codomain_dim": m * n,
        "left_rank": left.dimension,
        "right_rank": right.dimension,
        "angle_tol": CAYLEY_ANGLE_TOL,
        "principal_cosines": cosines,
        "note": (
            "index = domain_dim - codomain_dim by dimension counting; the "
            "informative outputs are ker_dim and coker_dim and their grid stability"
        ),
    }
    gray = _near_cut(1.0 - cosines, CAYLEY_ANGLE_TOL)
    warnings = ()
    if gray:
        warnings = (
            f"discretized-bvp on {m} intervals: 1 - cosine values {gray} lie near "
            f"the angle cut {CAYLEY_ANGLE_TOL:.1e}; the kernel dimension may be "
            "sensitive to the grid",
        )
    return IndexReport(
        ker_dim=ker,
        coker_dim=coker,
        index=ker - coker,
        method="discretized-bvp",
        diagnostics=diagnostics,
        warnings=warnings,
    )


def _shot_kernel_dim(
    transfer: NonunitaryPropagator,
    start: Subspace,
    target: Subspace,
    angle_tol: float,
) -> tuple[int, np.ndarray]:
    """Dimension of ``(R(T,0) start) ∩ target`` with the image orthonormalized.

    An image of lower dimension than ``start`` raises ``StiffnessError``: the
    invertible ``R(T,0)`` lost a direction to the span's relative cut.
    """
    if start.dimension == 0:
        return 0, np.zeros(0)
    image = Subspace.span(transfer.transfer @ start.basis)
    if image.dimension < start.dimension:
        raise StiffnessError(
            f"shooting kept {image.dimension} of {start.dimension} boundary directions: "
            "R(T, 0) stretches them too unevenly for double precision"
        )
    cosines = principal_cosines(image, target)
    return int(np.count_nonzero(cosines >= 1.0 - angle_tol)), cosines


def riemannian_kernel_shooting(
    family: OperatorFamily,
    *,
    tau_0: float = TAU_ZERO,
    angle_tol: float = SHOOTING_ANGLE_TOL,
) -> IndexReport:
    """Kernel and cokernel of ``d/dt + A`` by ODE shooting.

    The kernel is the part of the negative subspace of ``A(0)`` transported
    by the decaying flow into the nonnegative subspace of ``A(T)``.  The
    cokernel solves the formal adjoint with swapped boundary conditions,
    which after time reversal is the same computation for the reversed
    family: the time-reversed family is propagated as a second chain, with
    its own non-unitary propagator.  This pair is the only non-unitary
    chain the package integrates: one
    :func:`~apsflow.evolution.nonunitary_propagate` call multiplies both
    in one loop, one matrix product per step on the pair, and takes no
    unitarity defect (only :func:`~apsflow.evolution.propagate` does, for
    each product, as it goes).  The reversed
    chain is still evaluated at its own midpoints, checked and multiplied in
    its own order, into its own product; what the two chains share is that
    loop, the stiffness gate read from the forward family, and the step
    exponentials of generators bitwise equal to the forward family's at the
    mirrored step, so at ``T = 1`` one call takes ``SHOOTING_INTERVALS``
    exponentials instead of twice that and evaluates each family's
    midpoints once, with every byte the same.  Its boundary subspaces are
    the forward family's complements.

    What still separates this route from
    :func:`riemannian_index_discretized`: exponential midpoint steps on
    ``SHOOTING_INTERVALS`` (512) intervals where that route takes Cayley
    steps on its grid, one product ``R(T, 0)`` and then one span where it
    takes a QR per step, its own cut ``angle_tol`` (``SHOOTING_ANGLE_TOL``),
    and the cokernel from a propagation of the time-reversed family where it
    counts dimensions.  The two routes share no loop, factor or decomposition
    inside ``(0, T)``; both read the family's one copy of the boundary
    splits (:func:`aps_boundary_data`), which they always computed bit for
    bit alike.
    The diagnostics ``forward_condition`` and ``backward_condition`` are the
    condition numbers of the two transfer matrices at ``T``, not a maximum
    over the grid.
    """
    boundary = aps_boundary_data(family, tau_0=tau_0)
    forward, backward = nonunitary_propagate(family, SHOOTING_INTERVALS)
    ker, ker_cosines = _shot_kernel_dim(
        forward, boundary.left_subspace, boundary.right_subspace, angle_tol
    )
    coker, coker_cosines = _shot_kernel_dim(
        backward, boundary.right_complement, boundary.left_complement, angle_tol
    )

    diagnostics = {
        "intervals": SHOOTING_INTERVALS,
        "angle_tol": angle_tol,
        "kernel_cosines": ker_cosines,
        "cokernel_cosines": coker_cosines,
        "forward_condition": forward.condition,
        "backward_condition": backward.condition,
    }
    return IndexReport(
        ker_dim=ker,
        coker_dim=coker,
        index=ker - coker,
        method="ode-shooting",
        diagnostics=diagnostics,
        warnings=forward.warnings + backward.warnings,
    )


@dataclass(frozen=True)
class RiemannianMainRecord:
    """Agreement record: boundary-value index vs spectral flow, raw and regularized."""

    family_label: str
    sfl_raw: int
    index_raw: int
    regularized: bool
    sfl_regularized: int | None
    index_regularized: int | None
    passed: bool
    reports: tuple[IndexReport, ...]

    @property
    def warnings(self) -> tuple[str, ...]:
        return tuple(w for r in self.reports for w in r.warnings)

    def to_dict(self) -> dict:
        return {
            "family": self.family_label,
            "check": "riemannian-main",
            "sfl": self.sfl_raw,
            "index": self.index_raw,
            "regularized": self.regularized,
            "sfl_regularized": self.sfl_regularized,
            "index_regularized": self.index_regularized,
            "passed": self.passed,
            "reports": [r.to_dict() for r in self.reports],
            "warnings": list(self.warnings),
        }


def riemannian_main_check(
    family: OperatorFamily,
    grid_intervals: int = DEFAULT_GRID,
    *,
    tau_0: float = TAU_ZERO,
    gamma_min: float = GAMMA_MIN,
    raise_on_mismatch: bool = True,
) -> RiemannianMainRecord:
    """Check ``index(d/dt + A) == spectral flow`` for the boundary-value operator.

    Computes both integers for the family as given; when an endpoint is
    singular, repeats both on the endpoint-regularized family
    (:func:`endpoint_regularize`, whose bumps span ``REGULARIZATION_WINDOW``,
    0.1 of the horizon, at each end) and requires all four integers to agree.
    """
    sfl_raw = spectral_flow(family, gamma_min=gamma_min, tau_0=tau_0).value
    rep_raw = riemannian_index_discretized(family, grid_intervals, tau_0=tau_0)
    reports = [rep_raw]
    reg = endpoint_regularize(family, tau_0=tau_0)
    regularized = reg is not family  # the same object when no endpoint is singular
    sfl_reg = index_reg = None
    if regularized:
        sfl_reg = spectral_flow(reg, gamma_min=gamma_min, tau_0=tau_0).value
        rep_reg = riemannian_index_discretized(reg, grid_intervals, tau_0=tau_0)
        index_reg = rep_reg.index
        reports.append(rep_reg)
    values = {sfl_raw, rep_raw.index} | ({sfl_reg, index_reg} if regularized else set())
    record = RiemannianMainRecord(
        family_label=family.label,
        sfl_raw=sfl_raw,
        index_raw=rep_raw.index,
        regularized=regularized,
        sfl_regularized=sfl_reg,
        index_regularized=index_reg,
        passed=len(values) == 1,
        reports=tuple(reports),
    )
    if not record.passed and raise_on_mismatch:
        raise ConsistencyError(
            f"family {family.label!r}: boundary-value index and spectral flow "
            f"disagree: sfl={sfl_raw}, index={rep_raw.index}, "
            f"regularized sfl={sfl_reg}, regularized index={index_reg}",
            record=record,
        )
    return record


def operator_triplets(op: np.ndarray) -> list[tuple[int, int, float, float]]:
    """Sparse triplet dump ``(row, col, re, im)`` of the discretized operator."""
    rows, cols = np.nonzero(op)
    vals = op[rows, cols]
    return [
        (int(r), int(c), float(v.real), float(v.imag))
        for r, c, v in zip(rows, cols, vals)
    ]
