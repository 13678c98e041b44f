import math

import numpy as np
import pytest

from apsflow import matrixcore
from apsflow.errors import (
    AmbiguousSpectralCutError,
    DimensionMismatchError,
    EigendecompositionError,
)
from apsflow.matrixcore import (
    NEGATIVE_AXIS,
    NONNEGATIVE_AXIS,
    HermitianMatrix,
    Projection,
    Subspace,
    _fix_phases,
    carried_basis,
    eigh,
    eigh_stack,
    hermitian_stack,
    principal_cosines,
    projection_stack,
    range_bases,
    ranges_relative_index,
    rank_kernel,
    relative_index,
    snap_eigenvalues,
    spectral_projection,
    spectral_projections,
)
from apsflow.reporting import canonical_json
from conftest import (
    faulty_eigh,
    hermitian_stack_full_check,
    random_hermitian_entries,
    random_projection,
    subspace_intersection,
)


class TestHermitianMatrix:
    def test_symmetrizes_roundoff(self):
        h = HermitianMatrix([[1.0, 1e-14 + 1j], [-1j, 2.0]])
        assert np.allclose(h.entries, h.entries.conj().T)
        assert h.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix([[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            HermitianMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix([[np.inf, 0.0], [0.0, 0.0]])

    def test_entries_readonly(self):
        h = HermitianMatrix(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0


class TestEigh:
    def test_diagonal_matrix(self):
        s = eigh(HermitianMatrix(np.diag([1.0, 2.0])))
        assert np.allclose(s.eigenvalues, [1.0, 2.0])
        assert np.allclose(s.eigenvectors, np.eye(2))

    def test_identity_degenerate(self):
        s = eigh(HermitianMatrix(np.eye(3)))
        assert np.allclose(s.eigenvalues, [1.0, 1.0, 1.0])

    def test_offdiagonal_reconstruction(self):
        # independent oracle: check H V = V diag(w) by direct multiplication
        h = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        s = eigh(h)
        assert np.allclose(s.eigenvalues, [-1.0, 1.0])
        assert np.allclose(h.entries @ s.eigenvectors, s.eigenvectors * s.eigenvalues)
        root = 1.0 / np.sqrt(2.0)
        assert np.allclose(s.eigenvectors[:, 0], [root, -root])
        assert np.allclose(s.eigenvectors[:, 1], [root, root])

    def test_phase_fixing_deterministic(self, rng):
        h = HermitianMatrix(random_hermitian_entries(6, rng))
        s1, s2 = eigh(h), eigh(h)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
        for j in range(6):
            col = s1.eigenvectors[:, j]
            first = col[np.abs(col) > 1e-8 * np.abs(col).max()][0]
            assert first.real > 0 and abs(first.imag) < 1e-12


def _fix_phases_loop(v):
    """The column-by-column loop, kept as the reference for ``_fix_phases``."""
    v = np.array(v)
    for j in range(v.shape[1]):
        col = v[:, j]
        mags = np.abs(col)
        idx = int(np.argmax(mags > 1e-8 * mags.max())) if mags.max() > 0 else 0
        pivot = col[idx]
        if abs(pivot) > 0:
            v[:, j] = col * (pivot.conjugate() / abs(pivot))
    return v


class TestFixPhases:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 33])
    def test_matches_column_loop_bitwise(self, n, rng):
        inputs = []
        for _ in range(40):
            inputs.append(random_hermitian_entries(n, rng))
            # leading zeros in eigenvector columns: diagonal, degenerate and
            # block inputs whose eigenvectors vanish on the first rows
            inputs.append(np.diag(rng.standard_normal(n)))
            inputs.append(np.eye(n) + 0.0 * random_hermitian_entries(n, rng))
            block = np.zeros((n, n), dtype=complex)
            block[n // 2 :, n // 2 :] = random_hermitian_entries(n - n // 2, rng)
            inputs.append(block)
        for h in inputs:
            _, v = np.linalg.eigh(HermitianMatrix(h).entries)  # complex, as eigh sees it
            got, want = _fix_phases(v[None])[0], _fix_phases_loop(v)
            # compare bit patterns, so signed zeros count too
            assert got.tobytes() == want.tobytes()
        _, stack = np.linalg.eigh(hermitian_stack(inputs))
        want = np.stack([_fix_phases_loop(v) for v in stack])
        assert _fix_phases(stack).tobytes() == want.tobytes()


class TestSpectralProjection:
    def test_diagonal_split(self):
        s = eigh(HermitianMatrix(np.diag([-1.0, 1.0])))
        p = spectral_projection(s, NEGATIVE_AXIS)
        assert p.rank == 1
        assert np.allclose(p.matrix.entries, np.diag([1.0, 0.0]))

    def test_zero_matrix_counts_nonnegative(self):
        s = eigh(HermitianMatrix(np.zeros((2, 2))))
        p = spectral_projection(s, NONNEGATIVE_AXIS)
        assert p.rank == 2
        assert np.allclose(p.matrix.entries, np.eye(2))
        assert spectral_projection(s, NEGATIVE_AXIS).rank == 0

    def test_offdiagonal_negative_part(self):
        s = eigh(HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        p = spectral_projection(s, NEGATIVE_AXIS)
        # oracle: outer product of the (1, -1)/sqrt(2) eigenvector
        v = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert p.rank == 1
        assert np.allclose(p.matrix.entries, np.outer(v, v))

    def test_snapped_eigenvalue_is_positive(self):
        s = eigh(HermitianMatrix(np.diag([5e-10, 1.0])))
        assert spectral_projection(s, NONNEGATIVE_AXIS).rank == 2
        assert spectral_projection(s, NEGATIVE_AXIS).rank == 0

    def test_ambiguous_cut_near_zero(self):
        s = eigh(HermitianMatrix(np.diag([5e-8, 1.0])))
        with pytest.raises(AmbiguousSpectralCutError, match="5e-08"):
            spectral_projection(s, NEGATIVE_AXIS)

    def test_ambiguous_cut_names_the_axis(self):
        s = eigh(HermitianMatrix(np.diag([-5e-8, 1.0])))
        with pytest.raises(AmbiguousSpectralCutError, match=r"endpoint 0\.0 of \[0\.0, inf\)"):
            spectral_projection(s, NONNEGATIVE_AXIS)

    def test_unknown_axis_rejected(self):
        s = eigh(HermitianMatrix(np.diag([-1.0, 1.0])))
        with pytest.raises(ValueError, match="NEGATIVE_AXIS or NONNEGATIVE_AXIS"):
            spectral_projection(s, "[0.0, 0.5)")

    def test_complementarity(self, rng):
        for _ in range(10):
            s = eigh(HermitianMatrix(random_hermitian_entries(5, rng)))
            neg = spectral_projection(s, NEGATIVE_AXIS)
            pos = spectral_projection(s, NONNEGATIVE_AXIS)
            assert neg.rank + pos.rank == 5
            assert np.allclose(neg.matrix.entries + pos.matrix.entries, np.eye(5))

    def test_projection_invariants(self, rng):
        for _ in range(10):
            s = eigh(HermitianMatrix(random_hermitian_entries(6, rng)))
            p = spectral_projection(s, NEGATIVE_AXIS)
            e = p.matrix.entries
            assert np.max(np.abs(e @ e - e)) <= 1e-10
            assert np.max(np.abs(e - e.conj().T)) <= 1e-12
            assert abs(np.trace(e).real - p.rank) <= 1e-8


class TestRelativeIndex:
    def test_equal_projections(self, rng):
        p = random_projection(4, 2, rng)
        rep = relative_index(p, p)
        assert (rep.ker_dim, rep.coker_dim, rep.index) == (0, 0, 0)

    def test_identity_vs_line(self):
        # oracle: restriction of diag(1,0) to C^2 is (x, y) -> x, so ker is
        # the second axis and the map onto the line is onto
        p = Projection(HermitianMatrix(np.eye(2)), 2)
        q = Projection(HermitianMatrix(np.diag([1.0, 0.0])), 1)
        rep = relative_index(p, q)
        assert (rep.ker_dim, rep.coker_dim, rep.index) == (1, 0, 1)

    def test_orthogonal_lines(self):
        # oracle: the restriction is the zero map from one line to the other
        p = Projection(HermitianMatrix(np.diag([1.0, 0.0])), 1)
        q = Projection(HermitianMatrix(np.diag([0.0, 1.0])), 1)
        rep = relative_index(p, q)
        assert (rep.ker_dim, rep.coker_dim, rep.index) == (1, 1, 0)

    def test_index_is_rank_difference(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = random_projection(n, int(rng.integers(0, n + 1)), rng)
            q = random_projection(n, int(rng.integers(0, n + 1)), rng)
            rep = relative_index(p, q)
            assert rep.index == p.rank - q.rank

    def test_antisymmetry(self, rng):
        for _ in range(10):
            p = random_projection(5, int(rng.integers(0, 6)), rng)
            q = random_projection(5, int(rng.integers(0, 6)), rng)
            assert relative_index(p, q).index == -relative_index(q, p).index

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            relative_index(random_projection(3, 1, rng), random_projection(4, 1, rng))


def _shifted(w, v):
    return w + 1.0, v


def _no_convergence(w, v):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestStackedChecks:
    """Each stacked helper gives every matrix the bits and the errors of its one-matrix form."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16])
    def test_eigh_stack_has_the_bits_of_eigh(self, n, rng):
        mats = hermitian_stack([random_hermitian_entries(n, rng) for _ in range(7)])
        for got, m in zip(eigh_stack(mats), mats):
            want = eigh(HermitianMatrix(m))
            assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()
            assert not got.eigenvalues.flags.writeable and not got.eigenvectors.flags.writeable

    @pytest.mark.parametrize("fault", [_shifted, _no_convergence])
    def test_eigh_stack_failure_names_the_offending_matrix(self, monkeypatch, rng, fault):
        mats = hermitian_stack([random_hermitian_entries(3, rng) for _ in range(4)])
        faulty_eigh(monkeypatch, mats[2], fault)
        with pytest.raises(EigendecompositionError) as single:
            eigh(HermitianMatrix(mats[2]))
        with pytest.raises(EigendecompositionError) as stacked:
            eigh_stack(mats)
        assert str(stacked.value) == str(single.value)
        assert matrixcore._matrix_hash(mats[2]) in str(single.value)

    def test_range_bases_have_the_bits_of_range_basis(self, rng):
        ps = [random_projection(5, r, rng) for r in (0, 1, 3, 5)]
        stack = np.stack([p.matrix.entries for p in ps])
        for got, p in zip(range_bases(stack), ps):
            assert got.basis.tobytes() == p.range_basis.basis.tobytes()

    def test_projection_stack_checks_as_projection_does(self, rng):
        good = random_projection(3, 1, rng).matrix.entries
        bad = [
            (np.array([[0.0, 1.0], [0.5, 0.0]]), 1),  # not Hermitian
            (np.diag([1.0, 0.5]), 1),  # not idempotent
            (np.diag([1.0, 0.0]), 2),  # trace off its rank
        ]
        for mat, rank in bad:
            with pytest.raises(ValueError) as single:
                Projection(HermitianMatrix(mat), rank)
            with pytest.raises(ValueError) as stacked:
                projection_stack(np.stack([np.eye(2), mat, np.diag([0.5, 0.5])]), (2, rank, 1))
            assert str(stacked.value) == str(single.value)
        assert np.array_equal(projection_stack(good[None], (1,))[0], good)

    def test_spectral_projections_have_the_bits_of_spectral_projection(self, rng):
        spectra = [eigh(HermitianMatrix(random_hermitian_entries(4, rng))) for _ in range(5)]
        mats, ranks = spectral_projections(spectra, NEGATIVE_AXIS)
        for m, r, s in zip(mats, ranks, spectra):
            p = spectral_projection(s, NEGATIVE_AXIS)
            assert m.tobytes() == p.matrix.entries.tobytes() and r == p.rank

    def test_ranges_relative_index_is_relative_index(self, rng):
        for _ in range(10):
            p = random_projection(5, int(rng.integers(0, 6)), rng)
            q = random_projection(5, int(rng.integers(0, 6)), rng)
            want = relative_index(p, q, tau_rank=1e-4)
            got = ranges_relative_index(p.range_basis, p.rank, q.range_basis, q.rank, tau_rank=1e-4)
            assert canonical_json(got.to_dict()) == canonical_json(want.to_dict())


class TestSubspaces:
    def test_same_line(self):
        u = Subspace(2, np.array([[1.0], [0.0]]))
        w = subspace_intersection(u, u)
        assert w.dimension == 1
        assert abs(abs(w.basis[0, 0]) - 1.0) < 1e-12

    def test_orthogonal_lines_empty(self):
        u = Subspace(2, np.array([[1.0], [0.0]]))
        v = Subspace(2, np.array([[0.0], [1.0]]))
        assert subspace_intersection(u, v).dimension == 0

    def test_planes_meet_in_line(self):
        # oracle: the SVD of U* V has exactly one unit singular value
        u = Subspace(3, np.eye(3)[:, :2])
        v = Subspace(3, np.eye(3)[:, 1:])
        cos = principal_cosines(u, v)
        assert np.sum(cos > 1.0 - 1e-12) == 1
        w = subspace_intersection(u, v)
        assert w.dimension == 1
        assert np.allclose(np.abs(w.basis.ravel()), [0.0, 1.0, 0.0])

    def test_dimension_symmetry(self, rng):
        for _ in range(10):
            a = Subspace.span(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
            b = Subspace.span(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
            assert subspace_intersection(a, b).dimension == subspace_intersection(b, a).dimension

    def test_empty_subspace_first_class(self):
        e = Subspace.empty(3)
        u = Subspace.full(3)
        assert subspace_intersection(e, u).dimension == 0
        assert principal_cosines(e, u).size == 0

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]]))


class TestRankKernel:
    def test_identity(self):
        rep = rank_kernel(np.eye(2))
        assert rep.rank == 2 and rep.kernel_dim == 0 and rep.cokernel_dim == 0

    def test_zero_rectangular(self):
        rep = rank_kernel(np.zeros((2, 3)))
        assert rep.rank == 0 and rep.kernel_dim == 3 and rep.cokernel_dim == 2

    def test_rank_one(self):
        # oracle: singular values of [[1,0,0],[0,0,0]] are (1, 0)
        rep = rank_kernel(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert (rep.rank, rep.kernel_dim, rep.cokernel_dim) == (1, 2, 1)

    def test_relative_cut(self):
        # the cut is tau_rank * sigma_max, so scaling the matrix moves it along
        rep = rank_kernel(np.diag([1.0, 5e-10, 1e-10]), tau_rank=1e-9)
        assert (rep.rank, rep.kernel_dim, rep.cokernel_dim) == (1, 2, 2)
        rep = rank_kernel(np.diag([1.0, 2e-9, 5e-10]), tau_rank=1e-9)
        assert rep.rank == 2
        rep = rank_kernel(1e3 * np.diag([1.0, 2e-9, 5e-10]), tau_rank=1e-9)
        assert rep.rank == 2
        rep = rank_kernel(np.diag([1e3, 2e-9, 5e-10]), tau_rank=1e-9)
        assert rep.rank == 1


def _qr_inputs(n, r, rng):
    """Complex ``(n, r)`` inputs: generic, rank-deficient, with a zero column, and Cayley-like."""
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    yield "generic", g
    low = g[:, :1] @ (rng.standard_normal((1, r)) + 1j * rng.standard_normal((1, r)))
    yield "rank one", low
    zero = g.copy()
    zero[:, r // 2] = 0.0
    yield "zero column", zero
    yield "all zero", np.zeros((n, r), dtype=complex)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    yield "orthonormal", q[:, :r] * (1.0 + 1e-3 * rng.standard_normal(r))


def _reference_carry(factors, basis):
    """Every step's ``Q`` of the loop ``basis = np.linalg.qr(factor @ basis)[0]``."""
    steps = []
    for factor in factors:
        basis = np.linalg.qr(factor @ basis)[0]
        steps.append(basis)
    return steps


class TestCarriedBasis:
    """Each step of ``carried_basis`` is ``np.linalg.qr(factor @ basis)[0]`` bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    def test_every_step_has_the_bits_of_numpy_qr(self, n):
        rng = np.random.default_rng(100 + n)
        eye = np.eye(n, dtype=complex)
        for r in sorted({1, math.ceil(n / 2), n}):
            for kind, a in _qr_inputs(n, r, rng):
                # the identity hands each input to the first QR as it is
                factors = np.stack(
                    [eye, *(g for _, g in _qr_inputs(n, n, rng)), eye]
                )
                expected = _reference_carry(factors, a)
                for j, want in enumerate(expected, start=1):
                    got = carried_basis(factors[:j], a)
                    assert got.shape == want.shape == (n, r), (n, r, kind, j)
                    assert got.dtype == want.dtype, (n, r, kind, j)
                    assert got.tobytes() == want.tobytes(), (n, r, kind, j)

    def test_the_input_basis_is_not_written(self):
        basis = np.eye(3, 2, dtype=complex)
        basis.setflags(write=False)
        carried_basis(np.stack([2.0 * np.eye(3, dtype=complex)] * 3), basis)
        assert np.array_equal(basis, np.eye(3, 2))

    def test_only_complex_products_are_factored(self):
        with pytest.raises(TypeError, match="complex128"):
            carried_basis(np.eye(2)[None], np.eye(2))
        with pytest.raises(TypeError, match="complex128"):
            carried_basis(np.eye(2, dtype=np.complex64)[None], np.eye(2, dtype=np.complex64))

    def test_a_lapack_failure_still_raises(self, monkeypatch):
        # the gufunc reports a LAPACK failure through the invalid flag, as numpy's wrapper expects
        def failing(a, signature):
            return np.zeros(1) / np.zeros(1)

        monkeypatch.setattr(matrixcore._umath_linalg, "qr_r_raw", failing)
        with pytest.raises(np.linalg.LinAlgError, match="QR factorization"):
            carried_basis(np.eye(2, dtype=complex)[None], np.eye(2, dtype=complex))


class TestSnapping:
    def test_snap(self):
        w = snap_eigenvalues(np.array([-5e-10, 1e-12, 2e-9, -1.0]))
        assert np.array_equal(w, [0.0, 0.0, 2e-9, -1.0])


class TestHermitianStack:
    def test_symmetrizes_each_matrix_as_hermitian_matrix_does(self, rng):
        noise = 1e-14j * rng.standard_normal((4, 3, 3))
        mats = [random_hermitian_entries(3, rng) + e for e in noise]
        stack = hermitian_stack(mats)
        assert stack.shape == (4, 3, 3)
        assert not stack.flags.writeable
        for a, s in zip(mats, stack):
            assert np.array_equal(s, HermitianMatrix(a).entries)

    def test_first_offending_matrix_raises_its_own_message(self, rng):
        good = random_hermitian_entries(2, rng)
        first = np.array([[0.0, 1.0], [0.5, 0.0]])
        second = np.array([[0.0, 3.0], [0.0, 0.0]])
        with pytest.raises(ValueError) as single:
            HermitianMatrix(first)
        with pytest.raises(ValueError) as batched:
            hermitian_stack([good, first, second])
        assert str(batched.value) == str(single.value)

    def test_rejects_non_finite_and_bad_shapes(self):
        with pytest.raises(ValueError, match="finite"):
            hermitian_stack([[[np.nan]]])
        with pytest.raises(DimensionMismatchError):
            hermitian_stack(np.zeros((2, 2, 3)))
        with pytest.raises(DimensionMismatchError):
            hermitian_stack(np.zeros((2, 2)))


def _hermitian_table():
    """``(name, stack, atol)`` inputs for the fast path of ``hermitian_stack`` and its oracle."""
    rng = np.random.default_rng(17)
    table = []
    for n, k in ((1, 1), (2, 5), (3, 4), (4, 64), (16, 33)):
        h = np.stack([random_hermitian_entries(n, rng) for _ in range(k)])
        table.append((f"hermitian n={n} K={k}", h, 1e-12))
        noisy = h + 1e-14 * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
        table.append((f"roundoff n={n} K={k}", noisy, 1e-12))
    signed = np.array([[[1.0 + 0.0j, 2.0 - 0.0j], [2.0 + 0.0j, -3.0 - 0.0j]]])
    signed.imag[0, 0, 0] = -0.0
    table.append(("signed zero imaginary parts", signed, 1e-12))
    table.append(("negative zero off the diagonal", np.array([[[0.0, -0.0], [0.0, 0.0]]]), 1e-12))
    for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        for where, (i, j) in (("diagonal", (1, 1)), ("off-diagonal", (0, 1))):
            bad = np.stack([np.eye(2, dtype=complex)] * 3)
            bad[2, i, j] = value
            table.append((f"{name} on the {where}", bad, 1e-12))
            imag = np.stack([np.eye(2, dtype=complex)] * 3)
            imag[1, i, j] = complex(0.0, value)
            table.append((f"imaginary {name} on the {where}", imag, 1e-12))
    pair = np.eye(3, dtype=complex)[None].repeat(2, axis=0)
    pair[1, 0, 2] = pair[1, 2, 0] = np.inf
    table.append(("symmetric inf pair", pair, 1e-12))
    conj_pair = pair.copy()
    conj_pair[1, 0, 2], conj_pair[1, 2, 0] = complex(1.0, np.inf), complex(1.0, -np.inf)
    table.append(("conjugate imaginary inf pair", conj_pair, 1e-12))
    table.append(("overflowing a - a*", np.array([[[0.0, 1e308], [-1e308, 0.0]]]), 1e-12))
    table.append(("overflowing a + a*", np.array([[[1e308, 0.0], [0.0, 1.0]]]), 1e-12))
    table.append(("huge conjugate pair", np.array([[[0.0, 1.5e308 + 1.5e308j],
                                                    [1.5e308 - 1.5e308j, 0.0]]]), 1e-12))
    base = np.array([[0.5, 0.0], [0.0, -1.0]], dtype=complex)
    limit = 1e-12 * (1.0 + 1.0)  # atol * (1 + max|a|), the largest deviation that passes
    for name, deviation in (
        ("just below", np.nextafter(limit, 0.0)),
        ("at", limit),
        ("just above", np.nextafter(limit, 1.0)),
    ):
        skew = base.copy()
        skew[1, 0] = deviation
        table.append((f"asymmetry {name} atol", np.stack([base, skew]), 1e-12))
    table.append(("exact with atol 0", np.stack([base, base]), 0.0))
    table.append(("exact with a negative atol", base[None], -1.0))
    table.append(("exact with a NaN atol", base[None], np.nan))
    for shape in ((2, 2), (2, 2, 3), (2, 0, 0), (4,), ()):
        table.append((f"shape {shape}", np.zeros(shape), 1e-12))
    table.append(("nested lists", [[[1.0, 2j], [-2j, 0.0]]], 1e-12))
    return table


def _outcome(fn, a, atol):
    """The bytes and flags ``fn`` returns, or its exception type and text."""
    try:
        out = fn(a, atol=atol)
    except Exception as exc:  # the table compares every error, warnings included
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes(), out.flags.writeable


class TestHermitianStackFastPath:
    """Stacks equal to their adjoint skip the full check and give its bytes and errors."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, a, atol", _hermitian_table(), ids=lambda x: x if isinstance(x, str) else "")
    def test_same_bytes_or_error_as_the_full_check(self, name, a, atol):
        assert _outcome(hermitian_stack, a, atol) == _outcome(hermitian_stack_full_check, a, atol)

    def test_the_table_reaches_both_paths(self, monkeypatch):
        checked = []
        full = matrixcore._check_hermitian

        def recording(a, adjoint, atol):
            checked.append(True)
            return full(a, adjoint, atol)

        monkeypatch.setattr(matrixcore, "_check_hermitian", recording)
        hermitian_stack(np.eye(3)[None])
        assert checked == []
        hermitian_stack(np.array([[[1.0, 1e-14], [0.0, 1.0]]]))
        assert checked == [True]
