import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from apsflow import apsindex, evolution, spectralflow
from apsflow.apsindex import (
    aps_boundary_data,
    assemble_discretized_operator,
    lorentzian_index_projection,
    lorentzian_index_subspace,
    lorentzian_main_check,
    operator_triplets,
    riemannian_index_discretized,
    riemannian_kernel_shooting,
    riemannian_main_check,
)
from apsflow.cli import RIEMANNIAN_NORM_CAP
from apsflow.errors import (
    AmbiguousSpectralCutError,
    ConsistencyError,
    DimensionMismatchError,
    EigendecompositionError,
    FamilyConstructionError,
    StiffnessError,
)
from apsflow.evolution import nonunitary_propagate, propagate
from apsflow.families import (
    OperatorFamily,
    constant_family,
    counterexample_family,
    endpoint_regularize,
    linear_family,
    sampled_family,
)
from apsflow.matrixcore import (
    NEGATIVE_AXIS,
    SHOOTING_ANGLE_TOL,
    SIGMA_CUT,
    TAU_ZERO,
    HermitianMatrix,
    Projection,
    eigh,
    rank_kernel,
    relative_index,
    spectral_projection,
)
from apsflow.reporting import canonical_json
from apsflow.spectralflow import spectral_flow
from apsflow.zoo import random_trig_family, random_zoo, shipped_families, singular_endpoint_family
from conftest import (
    HARD_CHECKPOINT_FAMILIES,
    faulty_eigh,
    flow_plus_one,
    negative_count,
    numpy_peak,
    plain_shots,
    q_between,
    restricted,
    subspace_intersection,
)


def diag(*vals):
    return HermitianMatrix(np.diag(np.asarray(vals, dtype=float)))


class TestBoundaryData:
    def test_dimensions_complement(self, rng):
        f = random_trig_family(5, rng)
        data = aps_boundary_data(f)
        assert data.left_subspace.ambient_dim == 5
        assert 0 <= data.left_subspace.dimension <= 5

    def test_zero_counts_to_the_right(self):
        f = constant_family(diag(0.0, -1.0), 1.0)
        data = aps_boundary_data(f)
        assert data.left_subspace.dimension == 1  # only the -1 eigenline
        assert data.right_subspace.dimension == 1  # the zero eigenline

    def test_complements_are_the_reversed_boundary(self):
        # shooting reads the time-reversed family's boundary from the complements
        rng = np.random.default_rng(np.random.SeedSequence(0).spawn(1)[0])
        draws = [singular_endpoint_family(int(rng.integers(2, 5)), rng) for _ in range(20)]
        for f in [*shipped_families(), *draws]:
            data = aps_boundary_data(f)
            rev = aps_boundary_data(f.time_reversed())
            for got, want in (
                (rev.left_subspace, data.right_complement),
                (rev.right_subspace, data.left_complement),
            ):
                assert got.basis.shape == want.basis.shape, f.label
                assert got.basis.tobytes() == want.basis.tobytes(), f.label

    def test_computed_once_per_tau_0(self):
        # -1e-3 is negative under tau_0 = 1e-9 and snaps to zero under 1e-2
        f = linear_family(diag(-1e-3, 1.0), diag(2.0, -3.0), 1.0)
        fine = aps_boundary_data(f, tau_0=1e-9)
        coarse = aps_boundary_data(f, tau_0=1e-2)
        assert (fine.left_subspace.dimension, coarse.left_subspace.dimension) == (1, 0)
        assert aps_boundary_data(f, tau_0=1e-9) is fine
        assert aps_boundary_data(f, tau_0=1e-2) is coarse
        for tau_0, kept in ((1e-9, fine), (1e-2, coarse)):
            fresh = aps_boundary_data(replace(f), tau_0=tau_0)
            assert fresh is not kept
            for name in ("left_subspace", "right_subspace", "left_complement", "right_complement"):
                got, want = getattr(kept, name).basis, getattr(fresh, name).basis
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_kept_bases_are_read_only(self):
        f = constant_family(diag(-1.0, 1.0), 1.0)
        data = aps_boundary_data(f)
        with pytest.raises(ValueError, match="read-only"):
            data.left_subspace.basis[0, 0] = 7.0
        assert aps_boundary_data(f).left_subspace.basis[0, 0] == 1.0


class TestTransportIndexRoutes:
    def test_constant_invertible_zero(self):
        f = constant_family(diag(-1.0, 1.0), 1.0)
        p = propagate(f, 256)
        rep = lorentzian_index_projection(f, p)
        assert (rep.ker_dim, rep.coker_dim, rep.index) == (0, 0, 0)
        rep2 = lorentzian_index_subspace(f, p)
        assert (rep2.ker_dim, rep2.coker_dim, rep2.index) == (0, 0, 0)

    def test_scalar_crossing_by_hand(self):
        # oracle: H_<0(0) is everything, A(1) = 1/2 >= 0 kills the negative
        # subspace at the far end, so the restriction is the zero map C -> 0
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        p = propagate(f, 256)
        rep = lorentzian_index_projection(f, p)
        assert (rep.ker_dim, rep.coker_dim, rep.index) == (1, 0, 1)

    def test_counterexample_single_block(self):
        f = counterexample_family([1.0])
        p = propagate(f, 2**10)
        rep = lorentzian_index_subspace(f, p)
        assert (rep.ker_dim, rep.coker_dim, rep.index) == (1, 1, 0)
        # the kernel is the initial negative eigenline, carried onto the
        # positive one by the block's closed-form swap
        cos = rep.diagnostics["principal_cosines"]
        assert cos[0] > 1.0 - 1e-9
        # and that line is literally span(e1)
        from apsflow.matrixcore import (
            NEGATIVE_AXIS,
            NONNEGATIVE_AXIS,
            Subspace,
            eigh,
            spectral_subspace,
        )

        h_neg0 = spectral_subspace(eigh(f.at(0.0)), NEGATIVE_AXIS)
        h_pos1 = spectral_subspace(eigh(f.at(1.0)), NONNEGATIVE_AXIS)
        pulled = Subspace(2, q_between(p, 0.0, 1.0) @ h_pos1.basis)
        ker = subspace_intersection(h_neg0, pulled)
        assert np.allclose(np.abs(ker.basis.ravel()), [1.0, 0.0], atol=1e-5)

    def test_counterexample_m3_dimensions(self):
        f = counterexample_family([1.0, 2.0, 3.0])
        p = propagate(f, 2**10)
        rep_p = lorentzian_index_projection(f, p)
        rep_s = lorentzian_index_subspace(f, p)
        assert (rep_p.ker_dim, rep_p.coker_dim, rep_p.index) == (3, 3, 0)
        assert (rep_s.ker_dim, rep_s.coker_dim, rep_s.index) == (3, 3, 0)

    def test_cross_method_agreement_random(self, rng):
        for _ in range(10):
            f = random_trig_family(int(rng.choice([2, 4, 8])), rng)
            p = propagate(f, 512)
            a = lorentzian_index_projection(f, p)
            b = lorentzian_index_subspace(f, p)
            assert (a.ker_dim, a.coker_dim, a.index) == (b.ker_dim, b.coker_dim, b.index)

    def test_evolved_endpoint_projection_identity(self, rng):
        # conjugating the t=0 projection is a no-op, so replacing the left
        # member of the pair by its evolved version cannot change the report
        from apsflow.evolution import evolved_projections
        from apsflow.matrixcore import (
            NEGATIVE_AXIS,
            HermitianMatrix,
            Projection,
            eigh,
            relative_index,
            spectral_projection,
        )

        f = random_trig_family(3, rng)
        p = propagate(f, 256)
        left_plain = spectral_projection(eigh(f.at(0.0)), NEGATIVE_AXIS)
        mats, ranks = evolved_projections(f, p, [0.0, 1.0])
        left_evolved, right = (Projection(HermitianMatrix(m), r) for m, r in zip(mats, ranks))
        a = relative_index(left_plain, right, tau_rank=1e-4)
        b = relative_index(left_evolved, right, tau_rank=1e-4)
        assert (a.ker_dim, a.coker_dim, a.index) == (b.ker_dim, b.coker_dim, b.index)


class TestTransportMainCheck:
    def test_constant(self):
        f = constant_family(diag(-1.0, 1.0), 1.0)
        p = propagate(f, 256)
        rec = lorentzian_main_check(f, p)
        assert rec.passed
        assert all(e.index == 0 and e.sfl == 0 for e in rec.checkpoints)

    def test_scalar_crossing_checkpoints(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        p = propagate(f, 256)
        rec = lorentzian_main_check(f, p)
        assert rec.passed
        for e in rec.checkpoints:
            assert e.index == (1 if e.t >= 0.5 else 0)

    def test_counterexample_checkpoints(self):
        f = counterexample_family([1.0, 2.0, 3.0])
        p = propagate(f, 2**10)
        rec = lorentzian_main_check(f, p)
        assert rec.passed
        assert all(e.index == 0 and e.sfl == 0 for e in rec.checkpoints)
        final = rec.checkpoints[-1]
        assert final.t == pytest.approx(1.0) and final.ker_dim == 3

    def test_default_checkpoint_count(self, rng):
        f = random_trig_family(2, rng)
        p = propagate(f, 256)
        rec = lorentzian_main_check(f, p)
        assert len(rec.checkpoints) == 8
        assert rec.checkpoints[-1].t == pytest.approx(1.0)

    def test_checkpoint_flows_cover_the_horizon_once(self, rng, monkeypatch):
        f = random_trig_family(4, rng, drift=3.5)
        horizons = []
        original = spectralflow.build_flow_partition

        def spy(family, *args, **kwargs):
            horizons.append(family.horizon)
            return original(family, *args, **kwargs)

        monkeypatch.setattr(spectralflow, "build_flow_partition", spy)
        rec = lorentzian_main_check(f, propagate(f, 256))
        assert rec.passed
        assert horizons == [f.horizon]

    @pytest.mark.parametrize("name", sorted(HARD_CHECKPOINT_FAMILIES))
    def test_checkpoint_flows_on_hard_inputs(self, name):
        f = HARD_CHECKPOINT_FAMILIES[name]()
        rec = lorentzian_main_check(f, propagate(f, 256))
        assert rec.passed
        assert [e.t for e in rec.checkpoints] == [0.125 * j for j in range(1, 9)]
        for e in rec.checkpoints:
            assert e.sfl == spectral_flow(restricted(f, 0.0, e.t)).value
            assert e.sfl == negative_count(f, 0.0) - negative_count(f, e.t)

    def test_mismatch_raises_with_both_integers(self, monkeypatch):
        readout = spectralflow.running_flows

        def plus_one(*args, **kwargs):
            return [v + 1 for v in readout(*args, **kwargs)]

        monkeypatch.setattr(apsindex, "running_flows", plus_one)
        f = constant_family(diag(-1.0, 1.0), 1.0)
        p = propagate(f, 64)
        # every checkpoint flow now reads 1; the index stays 0
        with pytest.raises(ConsistencyError, match=r"\(0\.125, 0, 1\).*\(1\.0, 0, 1\)") as exc:
            lorentzian_main_check(f, p)
        assert exc.value.record.passed is False
        assert not lorentzian_main_check(f, p, raise_on_mismatch=False).passed


def one_checkpoint_reference(f, prop, t, tau_0=TAU_ZERO, sigma_cut=SIGMA_CUT):
    """The projection-pair report at one checkpoint, one matrix at a time.

    The reference for the stacked pass: ``P_<0(0)`` and ``P_<0(t)`` cut from
    their own decompositions, the evolved projection built and checked as a
    :class:`Projection`, and the pair's :func:`relative_index`.
    """
    k = prop.index_of(t)
    tk = float(prop.grid[k])
    spectrum = f.endpoint_spectra[1] if tk == f.horizon else eigh(f.at(tk))
    base = spectral_projection(spectrum, NEGATIVE_AXIS, tau_0=tau_0)
    u = prop.unitaries[k]
    evolved = Projection(HermitianMatrix(u.conj().T @ base.matrix.entries @ u), rank=base.rank)
    p0 = spectral_projection(eigh(f.at(0.0)), NEGATIVE_AXIS, tau_0=tau_0)
    rep = relative_index(p0, evolved, tau_rank=sigma_cut)
    diagnostics = {**rep.diagnostics, "t_end": float(t), "sigma_cut": sigma_cut}
    sigma = diagnostics["singular_values"]
    return replace(
        rep,
        diagnostics=diagnostics,
        warnings=apsindex._gray_zone_warnings("projection-pair", t, sigma, sigma_cut),
    )


def checkpoint_families():
    rng = np.random.default_rng(41)
    return [
        *shipped_families(),
        *random_zoo(10, 41, sizes=(2, 3, 4, 8, 16)),
        *(singular_endpoint_family(int(rng.integers(2, 6)), rng) for _ in range(4)),
        *(make() for make in HARD_CHECKPOINT_FAMILIES.values()),
    ]


def report_bytes(rep):
    return canonical_json(rep.to_dict()), rep.warnings


class TestStackedCheckpointPass:
    """The stacked checkpoint pass gives each report the bytes of a pass at that time alone."""

    def test_every_report_has_the_bytes_of_a_one_time_pass(self):
        for f in checkpoint_families():
            prop = propagate(f, 256)
            rec = lorentzian_main_check(f, prop, raise_on_mismatch=False)
            times = [e.t for e in rec.checkpoints]
            p0 = apsindex._start_projection(f, TAU_ZERO)
            stacked = apsindex._projection_pair_indices(p0, f, prop, times, TAU_ZERO, SIGMA_CUT)
            assert report_bytes(stacked[-1]) == report_bytes(rec.projection_at_end), f.label
            assert rec.warnings == tuple(w for r in stacked for w in r.warnings), f.label
            for t, rep, entry in zip(times, stacked, rec.checkpoints):
                fresh = replace(f)  # keeps none of f's endpoint projections
                (alone,) = apsindex._projection_pair_indices(
                    apsindex._start_projection(fresh, TAU_ZERO), fresh, prop, [t],
                    TAU_ZERO, SIGMA_CUT,
                )
                assert report_bytes(rep) == report_bytes(alone), (f.label, t)
                want = one_checkpoint_reference(f, prop, t)
                assert report_bytes(rep) == report_bytes(want), (f.label, t)
                assert (entry.ker_dim, entry.coker_dim, entry.index) == (
                    want.ker_dim, want.coker_dim, want.index
                )
            route = lorentzian_index_projection(f, prop)
            assert report_bytes(route) == report_bytes(rec.projection_at_end), f.label

    def test_interior_ambiguous_cut_keeps_the_advice(self):
        # the eigenvalue is 5e-8 at the checkpoint t = 1/4: above snapping, inside the gap
        f = linear_family(diag(-0.25 + 5e-8), diag(1.0), 1.0)
        with pytest.raises(AmbiguousSpectralCutError) as alone:
            spectral_projection(eigh(f.at(0.25)), NEGATIVE_AXIS)
        with pytest.raises(AmbiguousSpectralCutError) as stacked:
            lorentzian_main_check(f, propagate(f, 256))
        assert str(stacked.value) == (
            f"{alone.value}; apply endpoint_regularize to push the offending "
            "eigenvalue away from the spectral cut"
        )

    def test_failed_checkpoint_eigh_raises_its_one_matrix_text(self, monkeypatch):
        f = random_trig_family(3, np.random.default_rng(8))
        prop = propagate(f, 256)
        # shifted eigenvalues: the reconstruction of A(1/2) fails
        faulty_eigh(monkeypatch, f.at(0.5).entries, lambda w, v: (w + 1.0, v))
        with pytest.raises(EigendecompositionError) as alone:
            eigh(f.at(0.5))
        with pytest.raises(EigendecompositionError) as stacked:
            lorentzian_main_check(f, prop)
        assert str(stacked.value) == str(alone.value)
        assert "failed validation" in str(alone.value)

    def test_failed_projection_check_raises_its_one_matrix_text(self):
        f = random_trig_family(3, np.random.default_rng(9))
        prop = propagate(f, 256)
        u = prop.unitaries.copy()
        u[128] *= 1.001  # Q(1/2, 0) no longer unitary: its evolved projection is not idempotent
        object.__setattr__(prop, "unitaries", u)
        base = spectral_projection(eigh(f.at(0.5)), NEGATIVE_AXIS)
        assert base.rank
        with pytest.raises(ValueError) as alone:
            Projection(HermitianMatrix(u[128].conj().T @ base.matrix.entries @ u[128]), base.rank)
        with pytest.raises(ValueError) as stacked:
            lorentzian_main_check(f, prop)
        assert str(stacked.value) == str(alone.value)
        assert "not idempotent" in str(alone.value)

    def test_non_hermitian_checkpoint_raises_its_one_matrix_text(self):
        base = random_trig_family(2, np.random.default_rng(10))
        skew = np.array([[0.0, 1.0], [0.0, 0.0]])

        def eval_fn(t):
            return base.eval_fn(t) + (np.asarray(t) == 0.5)[..., None, None] * skew

        f = replace(base, eval_fn=eval_fn)
        prop = propagate(base, 256)
        with pytest.raises(ValueError) as alone:
            f.at(0.5)
        p0 = apsindex._start_projection(f, TAU_ZERO)
        with pytest.raises(ValueError) as stacked:
            apsindex._projection_pair_indices(p0, f, prop, [0.25, 0.5, 1.0], TAU_ZERO, SIGMA_CUT)
        assert str(stacked.value) == str(alone.value)
        assert "not Hermitian" in str(alone.value)


class TestDiscretizedOperator:
    def test_shape_matches_boundary_ranks(self, rng):
        f = random_trig_family(3, rng)
        disc = assemble_discretized_operator(f, 16)
        r1 = 3 - disc.left_rank  # rank of the nonnegative projection at 0
        r2 = 3 - disc.right_rank  # rank of the negative projection at T
        assert disc.matrix.shape == (16 * 3, 17 * 3 - r1 - r2)

    def test_triplets_cover_nonzeros(self, rng):
        f = random_trig_family(2, rng)
        disc = assemble_discretized_operator(f, 8)
        trips = operator_triplets(disc)
        rebuilt = np.zeros_like(disc.matrix)
        for r, c, re, im in trips:
            rebuilt[r, c] = re + 1j * im
        assert np.array_equal(rebuilt, disc.matrix)

    def test_scalar_crossing_dimensions(self):
        # oracle: no boundary constraints bind (H_<0(0) and H_>=0(1) are all
        # of C), so the domain has M+1 slices against M equations
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        disc = assemble_discretized_operator(f, 64)
        assert disc.matrix.shape == (64, 65)

    def test_grid_minimum(self, rng):
        f = random_trig_family(2, rng)
        with pytest.raises(ValueError):
            assemble_discretized_operator(f, 3)


class TestRiemannianDiscretized:
    def test_scalar_crossing(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        rep = riemannian_index_discretized(f, 64)
        assert (rep.ker_dim, rep.coker_dim, rep.index) == (1, 0, 1)

    def test_constant_positive(self):
        # oracle for the recursion: f_0 is unconstrained but the decaying
        # solution must satisfy f_M in H_>=0 = C, while membership of f_0 in
        # H_<0(0) = {0} forces f identically zero
        f = constant_family(diag(1.0), 1.0)
        rep = riemannian_index_discretized(f, 64)
        assert (rep.ker_dim, rep.coker_dim, rep.index) == (0, 0, 0)

    def test_constant_negative(self):
        f = constant_family(diag(-1.0), 1.0)
        rep = riemannian_index_discretized(f, 64)
        assert (rep.ker_dim, rep.coker_dim, rep.index) == (0, 0, 0)

    def test_grid_stability(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        dims = [
            (r.ker_dim, r.coker_dim)
            for r in (riemannian_index_discretized(f, m) for m in (32, 64, 128))
        ]
        assert dims[0] == dims[1] == dims[2] == (1, 0)

    def test_counterexample_kernels(self):
        f = counterexample_family([1.0, 2.0])
        rep = riemannian_index_discretized(f, 64)
        # the transport swap is a feature of d/dt - iA; for d/dt + A the
        # dimension count still forces index 0 and the kernel pairs off
        assert rep.index == 0
        assert rep.ker_dim == rep.coker_dim

    def test_forced_index_note_present(self, rng):
        f = random_trig_family(2, rng)
        rep = riemannian_index_discretized(f, 32)
        assert "dimension counting" in rep.diagnostics["note"]

    def test_stiffness_guard(self):
        f = constant_family(diag(80.0), 1.0)
        with pytest.raises(StiffnessError, match="grid of 32 intervals"):
            riemannian_index_discretized(f, 32)

    def test_cayley_past_the_stiffness_bound(self):
        # the QR per step keeps the carried basis normalized, so only the grid
        # precondition applies; nonunitary_propagate keeps the bound 40
        for f in random_zoo(6, 0, sizes=(2, 4, 8)) + random_zoo(6, 1, sizes=(2, 4, 8)):
            ev, dv = f.eval_fn, f.derivative_fn
            c = 60.0 / (f.norm_bound() * f.horizon)
            f = replace(
                f,
                eval_fn=lambda t, ev=ev, c=c: c * ev(t),
                derivative_fn=lambda t, dv=dv, c=c: c * dv(t),
            )
            assert f.norm_bound() * f.horizon == pytest.approx(60.0)
            rep = riemannian_index_discretized(f, 64)
            dense = rank_kernel(assemble_discretized_operator(f, 64).matrix)
            assert (rep.ker_dim, rep.coker_dim) == (dense.kernel_dim, dense.cokernel_dim), f.label
        rep = riemannian_index_discretized(constant_family(diag(-50.0, 50.0), 1.0), 64)
        assert (rep.ker_dim, rep.coker_dim) == (0, 0)

    def test_grid_must_resolve_the_norm(self):
        # at M = 4 the step matrix I/h + A/2 of the eigenvalue -8 = -2/h is exactly singular
        f = constant_family(diag(-8.0, 3.0), 1.0)
        with pytest.raises(StiffnessError, match="grid of 4 intervals"):
            riemannian_index_discretized(f, 4)
        rep = riemannian_index_discretized(f, 8)  # h ||A|| = 1
        assert (rep.ker_dim, rep.coker_dim) == (0, 0)
        # a spike between the norm samples, on the first midpoint of M = 64: the
        # eigenvalue 2/h = 128 would make that step annihilate H_<0(0) = span(e1)
        spike = sampled_family(
            [0.0, 1 / 128, 1 / 64, 1.0],
            [np.diag([-1.0, 1.0]), np.diag([128.0, 1.0]), np.diag([-1.0, 1.0]), np.diag([-1.0, 1.0])],
        )
        assert spike.norm_bound() == 1.0
        with pytest.raises(StiffnessError, match="grid of 64 intervals"):
            riemannian_index_discretized(spike, 64)

    def test_matches_the_dense_svd_oracle(self):
        rng = np.random.default_rng(7)
        singular = [singular_endpoint_family(2 + j % 3, rng) for j in range(10)]
        # the oracle's relative rank cut 1e-10 misreads from about ||A|| T = 120,
        # where sigma_min / sigma_max of the dense matrix falls below it, so
        # the oracle stays at ||A|| T <= 40
        fams = [f for f in shipped_families() if f.norm_bound() * f.horizon <= 40.0]
        fams += [random_trig_family(n, rng) for n in (2, 3, 4, 8)]
        fams += singular + [endpoint_regularize(f) for f in singular]
        cases = [(f, m) for f in fams for m in (8, 16, 32) if m >= f.norm_bound() * f.horizon]
        for n, m in ((2, 8), (3, 8), (4, 16), (8, 16)):
            # scaled to h ||A|| = 0.95, close to the pole precondition
            f = random_trig_family(n, rng)
            ev = f.eval_fn
            c = 0.95 * m / (f.norm_bound() * f.horizon)
            cases.append((replace(f, eval_fn=lambda t, ev=ev, c=c: c * ev(t), derivative_fn=None), m))
        for f, m in cases:
            rep = riemannian_index_discretized(f, m)
            dense = rank_kernel(assemble_discretized_operator(f, m).matrix)
            assert (rep.ker_dim, rep.coker_dim) == (dense.kernel_dim, dense.cokernel_dim)
            d = rep.diagnostics
            cosines = np.asarray(d["principal_cosines"])
            assert rep.ker_dim == np.count_nonzero(cosines >= 1.0 - d["angle_tol"])
            assert rep.coker_dim == f.dim - d["left_rank"] - d["right_rank"] + rep.ker_dim

    def test_additivity_at_invertible_interior_point(self, rng):
        for _ in range(5):
            f = random_trig_family(3, rng)
            s = 0.5
            if min(np.abs(np.linalg.eigvalsh(f.at(s).entries))) < 1e-6:
                continue
            whole = riemannian_index_discretized(f, 64).index
            left = riemannian_index_discretized(restricted(f, 0.0, s), 32).index
            right = riemannian_index_discretized(restricted(f, s, 1.0), 32).index
            assert whole == left + right


def eigvalsh_grid_decision(f, m):
    """The grid precondition read from the eigenvalues at every midpoint: its message or None."""
    h = f.horizon / m
    mids = f.at_many([(k + 0.5) * h for k in range(m)])
    stiffness = f.horizon * max(f.norm_bound(), float(np.max(np.abs(np.linalg.eigvalsh(mids)))))
    if m < stiffness:
        return (
            f"||A|| * T = {stiffness:.3g} exceeds the grid of {m} intervals; "
            "the Crank-Nicolson steps need h ||A|| <= 1, i.e. at least ||A|| * T intervals"
        )
    return None


def grid_decision(f, m):
    """What ``riemannian_index_discretized`` decides about the grid: a message or None."""
    try:
        riemannian_index_discretized(f, m)
    except StiffnessError as exc:
        return str(exc)
    return None


def _rank_one(c, horizon):
    """``c e2 e2*``: rank one, so its spectral norm is its Frobenius norm ``|c|``."""
    return constant_family(diag(0.0, c), horizon)


def _eigvalsh_calls(monkeypatch):
    """A list that records the shape of every later ``np.linalg.eigvalsh`` argument."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return calls


class TestGridPreconditionBound:
    """The Frobenius bound decides the grid as the midpoint eigenvalues do, and skips them."""

    @pytest.mark.parametrize("m, horizon", [(32, 1.0), (48, 0.5), (64, 0.25)])
    def test_rank_one_family_at_and_one_ulp_above_the_grid(self, m, horizon, monkeypatch):
        at = _rank_one(m / horizon, horizon)
        above = _rank_one(np.nextafter(m / horizon, np.inf), horizon)
        assert at.norm_bound() * horizon == m and above.norm_bound() * horizon > m
        assert grid_decision(at, m) is None
        assert grid_decision(above, m) == eigvalsh_grid_decision(above, m)
        assert grid_decision(above, m) == (
            f"||A|| * T = {m} exceeds the grid of {m} intervals; the Crank-Nicolson "
            "steps need h ||A|| <= 1, i.e. at least ||A|| * T intervals"
        )
        # at ||A|| T = M the margin of the Frobenius bound fails it: the eigenvalues decide
        calls = _eigvalsh_calls(monkeypatch)
        assert grid_decision(at, m) is None
        assert calls == [(m, 2, 2)]

    def test_a_spike_between_the_norm_samples(self):
        spike = sampled_family(
            [0.0, 1 / 128, 1 / 64, 1.0],
            [np.diag([-1.0, 1.0]), np.diag([128.0, 1.0]), np.diag([-1.0, 1.0]), np.diag([-1.0, 1.0])],
        )
        assert spike.norm_bound() == 1.0
        decisions = {m: grid_decision(spike, m) for m in (8, 32, 64, 96, 128, 256)}
        assert decisions == {m: eigvalsh_grid_decision(spike, m) for m in decisions}
        assert decisions[8] is None and decisions[64] is not None

    def test_no_midpoint_eigenvalues_when_the_bound_passes(self, monkeypatch):
        f = random_trig_family(4, np.random.default_rng(5))
        half = _rank_one(16.0, 1.0)
        for g in (f, half):
            g.norm_bound()  # kept on the family: the spy sees only the grid check
        calls = _eigvalsh_calls(monkeypatch)
        for m in (32, 48, 64):
            riemannian_index_discretized(f, m)
        assert grid_decision(half, 32) is None
        assert calls == []


class TestNonFiniteCayleyBasis:
    def test_a_non_finite_step_factor_is_a_typed_error(self, monkeypatch):
        solve = np.linalg.solve

        def one_inf_entry(a, b):
            factors = solve(a, b)
            factors[7, 0, 1] = np.inf
            return factors

        monkeypatch.setattr(apsindex.np.linalg, "solve", one_inf_entry)
        f = linear_family(diag(-0.5, 0.25), diag(1.0, 0.5), 1.0)
        message = "grid of 64 intervals carried H_<0.0. to a non-finite basis"
        # a RuntimeWarning turned into an error escapes pytest.raises
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(StiffnessError, match=message):
                riemannian_index_discretized(f, 64)


class TestRiemannianShooting:
    def test_scalar_crossing(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        rep = riemannian_kernel_shooting(f)
        assert (rep.ker_dim, rep.coker_dim, rep.index) == (1, 0, 1)

    def test_constant_positive_trivial_kernel(self):
        f = constant_family(diag(1.0), 1.0)
        rep = riemannian_kernel_shooting(f)
        assert rep.ker_dim == 0

    def test_lost_direction_raises(self):
        # at -25 R(T, 0) stretches H_<0(0) = C^2 with singular-value ratio 1.4e-11,
        # below the span's relative cut, so without the check the kernel reads 0
        f = linear_family(diag(-25.0, -15.0), diag(0.0, 30.0), 1.0)
        with pytest.raises(StiffnessError, match="shooting kept 1 of 2 boundary directions"):
            riemannian_kernel_shooting(f)
        f = linear_family(diag(-20.0, -15.0), diag(0.0, 30.0), 1.0)
        for rep in (riemannian_kernel_shooting(f), riemannian_index_discretized(f, 64)):
            assert (rep.ker_dim, rep.coker_dim) == (1, 0), rep.method

    def test_agrees_with_discretized(self, rng):
        for _ in range(8):
            f = random_trig_family(int(rng.choice([2, 4])), rng)
            if f.norm_bound() > 10.0:
                continue
            shoot = riemannian_kernel_shooting(f)
            disc = riemannian_index_discretized(f, 64)
            assert shoot.ker_dim == disc.ker_dim
            assert shoot.coker_dim == disc.coker_dim


def _sharing_families():
    fams = [f for f in shipped_families() if f.norm_bound() * f.horizon <= RIEMANNIAN_NORM_CAP]
    rng = np.random.default_rng(23)
    fams += [singular_endpoint_family(n, rng) for n in (2, 3, 8)]
    zoo = random_zoo(5, 17, sizes=(2, 3, 4, 8, 16))
    for horizon in (1.0, 0.7, 1.3, math.pi / 3):
        fams += [replace(f, horizon=horizon, label=f"{f.label}@{horizon:.4f}") for f in zoo]
    return fams


def _plain_shots(f):
    """Shooting's outputs from two one-shot chains that share nothing."""
    boundary = aps_boundary_data(f)
    forward, backward = plain_shots(f)
    ker = apsindex._shot_kernel_dim(
        forward, boundary.left_subspace, boundary.right_subspace, SHOOTING_ANGLE_TOL
    )
    coker = apsindex._shot_kernel_dim(
        backward, boundary.right_complement, boundary.left_complement, SHOOTING_ANGLE_TOL
    )
    return forward, backward, ker, coker


def _exponentials(monkeypatch, f):
    """The number of matrices one shooting call of ``f`` exponentiates."""
    counted = []
    batch = evolution._expi_hermitian_batch

    def counting(mats, factor):
        counted.append(len(mats))
        return batch(mats, factor)

    monkeypatch.setattr(evolution, "_expi_hermitian_batch", counting)
    riemannian_kernel_shooting(f)
    return sum(counted)


class TestSharedShotFactors:
    """One call multiplies both shots; the reversed one borrows bitwise-equal exponentials."""

    @pytest.mark.parametrize("f", _sharing_families(), ids=lambda f: f.label)
    def test_same_bits_as_two_plain_shots(self, f, monkeypatch):
        calls = []

        def recording(*args, **kwargs):
            calls.append(nonunitary_propagate(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(apsindex, "nonunitary_propagate", recording)
        shot = riemannian_kernel_shooting(f)
        forward, backward, (ker, ker_cosines), (coker, coker_cosines) = _plain_shots(f)
        (joint,) = calls
        assert [r.transfer.tobytes() for r in joint] == [
            forward.transfer.tobytes(),
            backward.transfer.tobytes(),
        ]
        assert [r.condition for r in joint] == [forward.condition, backward.condition]
        assert [r.warnings for r in joint] == [forward.warnings, backward.warnings]
        assert [r.family_label for r in joint] == [forward.family_label, backward.family_label]
        assert (shot.ker_dim, shot.coker_dim) == (ker, coker)
        assert shot.diagnostics["kernel_cosines"].tobytes() == ker_cosines.tobytes()
        assert shot.diagnostics["cokernel_cosines"].tobytes() == coker_cosines.tobytes()
        assert shot.diagnostics["forward_condition"] == forward.condition
        assert shot.diagnostics["backward_condition"] == backward.condition
        assert shot.warnings == forward.warnings + backward.warnings

    def test_half_the_exponentials_at_horizon_one(self, monkeypatch):
        f = random_trig_family(4, np.random.default_rng(29))
        assert _exponentials(monkeypatch, f) == 512

    def test_only_bitwise_equal_generators_share_off_the_dyadic_horizon(self, monkeypatch):
        # at T = 0.7 the mirrored midpoint times round differently for about half the steps
        f = replace(random_trig_family(4, np.random.default_rng(29)), horizon=0.7)
        assert 512 < _exponentials(monkeypatch, f) < 1024

    def test_an_unreversed_cokernel_shot_shares_nothing(self, monkeypatch):
        monkeypatch.setattr(OperatorFamily, "time_reversed", lambda self: self)
        f = random_trig_family(4, np.random.default_rng(29))
        assert _exponentials(monkeypatch, f) == 1024

    def test_stiffness_is_gated_once_on_the_forward_family(self, monkeypatch):
        reversals = []
        time_reversed = OperatorFamily.time_reversed

        def recording(self):
            reversals.append(time_reversed(self))
            return reversals[-1]

        monkeypatch.setattr(OperatorFamily, "time_reversed", recording)
        riemannian_kernel_shooting(random_trig_family(3, np.random.default_rng(31)))
        (reversal,) = reversals
        assert ("norm_bound",) not in vars(reversal).get("_memo", {})  # computed only when read
        f = constant_family(diag(-50.0, 50.0), 1.0)
        message = (
            r"^\|\|A\|\| \* T = 50 exceeds the stiffness bound 40; "
            r"shrink the horizon or the spectrum$"
        )
        with pytest.raises(StiffnessError, match=message):
            riemannian_kernel_shooting(f)

    def test_shooting_holds_the_forward_factors_and_a_small_buffer(self):
        f = random_trig_family(16, np.random.default_rng(3))
        riemannian_kernel_shooting(f, 8)  # first-call allocations of the linear-algebra kernels
        factors = 512 * 16 * 16 * np.dtype(complex).itemsize
        # at T = 0.7 about half the reversal's steps are exponentiated on their own
        for g in (f, replace(f, horizon=0.7)):
            _, peak = numpy_peak(lambda: riemannian_kernel_shooting(g))
            assert peak - factors <= 2**20, g.horizon

    def test_each_family_evaluates_its_midpoints_once_at_horizon_one(self, monkeypatch):
        f = random_trig_family(4, np.random.default_rng(29))
        f.norm_bound()  # the stiffness gate's samples, kept on the family
        evaluated = {}
        at_many = OperatorFamily.at_many

        def recording(self, ts):
            evaluated.setdefault(self.label, []).append(np.asarray(ts, dtype=float))
            return at_many(self, ts)

        monkeypatch.setattr(OperatorFamily, "at_many", recording)
        riemannian_kernel_shooting(f)
        mids = np.linspace(0.0, 1.0, 513)[:-1] + 0.5 / 512
        assert sorted(evaluated) == [f.label, f"{f.label}(reversed)"]
        for times in evaluated.values():
            assert np.array_equal(np.sort(np.concatenate(times)), mids)


def _cosine_check_families():
    fams = [f for f in shipped_families() if f.norm_bound() * f.horizon <= RIEMANNIAN_NORM_CAP]
    rng = np.random.default_rng(11)
    fams += [singular_endpoint_family(n, rng) for n in (2, 3, 4, 8)]
    fams += random_zoo(4, 5, sizes=(4, 8, 16))
    return fams


@pytest.fixture(scope="module")
def cosine_check_shots():
    """Each cosine-check family with its shooting report, shot once for every cosine test."""
    fams = _cosine_check_families()
    for f in fams:
        assert f.norm_bound() * f.horizon <= RIEMANNIAN_NORM_CAP, f.label
    assert len({f.label for f in fams}) == len(fams)
    return [(f, riemannian_kernel_shooting(f)) for f in fams]


def _reversed_in_the_test(f):
    """``f`` run backwards, built here so that a fault in ``time_reversed`` cannot reach it."""
    ev, horizon = f.eval_fn, f.horizon
    return replace(f, eval_fn=lambda s: ev(horizon - s), derivative_fn=None)


def _cosine_gaps(shots, key="kernel_cosines", grid=48):
    """Per family, the largest gap between sorted Cayley and shooting cosines.

    ``key="kernel_cosines"`` compares with the Cayley cosines of the family,
    ``"cokernel_cosines"`` with those of the family reversed in time.
    """
    gaps = {}
    for f, shot in shots:
        g = f if key == "kernel_cosines" else _reversed_in_the_test(f)
        cayley = np.sort(riemannian_index_discretized(g, grid).diagnostics["principal_cosines"])
        shot_cosines = np.sort(shot.diagnostics[key])
        assert cayley.shape == shot_cosines.shape, f.label
        gaps[f.label] = float(np.max(np.abs(cayley - shot_cosines), initial=0.0))
    return gaps


class TestCayleyMatchesShooting:
    """The two boundary-value routes must agree on the cosines, not only on integers.

    Both compute the principal cosines between the carried ``H_<0(0)`` and
    ``H_>=0(T)``, with different steps and grids; their discretization
    errors are far below ``COSINE_ATOL`` (5.8e-5 at most over these
    families).  The same holds for shooting's cokernel cosines against the
    Cayley cosines of the family reversed in time.  A wrong operator, such
    as ``d/dt - A`` in the Cayley factors, or a cokernel shot on the forward
    family, can leave every kernel and cokernel dimension in place while
    moving the cosines.
    """

    COSINE_ATOL = 1e-3

    def test_cosines_agree(self, cosine_check_shots):
        gaps = _cosine_gaps(cosine_check_shots)
        assert max(gaps.values()) <= self.COSINE_ATOL, gaps

    def test_sign_flip_in_the_cayley_factors_is_caught(self, cosine_check_shots, monkeypatch):
        # (I/h - A/2)^-1 (I/h + A/2) steps d/dt - A; shooting calls no solve
        solve = np.linalg.solve
        monkeypatch.setattr(apsindex.np.linalg, "solve", lambda a, b: solve(b, a))
        gaps = _cosine_gaps(cosine_check_shots)
        assert max(gaps.values()) > self.COSINE_ATOL, gaps

    def test_cokernel_cosines_agree(self, cosine_check_shots):
        gaps = _cosine_gaps(cosine_check_shots, "cokernel_cosines")
        assert max(gaps.values()) <= self.COSINE_ATOL, gaps

    def test_unreversed_cokernel_shot_is_caught(self, cosine_check_shots, monkeypatch):
        # shooting then propagates the forward family a second time for the cokernel
        monkeypatch.setattr(OperatorFamily, "time_reversed", lambda self: self)
        shots = [(f, riemannian_kernel_shooting(f)) for f, _ in cosine_check_shots]
        gaps = _cosine_gaps(shots, "cokernel_cosines")
        assert max(gaps.values()) > self.COSINE_ATOL, gaps


class TestRiemannianMainCheck:
    def test_constant_invertible(self):
        rec = riemannian_main_check(constant_family(diag(-1.0, 1.0), 1.0))
        assert rec.passed and not rec.regularized
        assert rec.sfl_raw == rec.index_raw == 0

    def test_scalar_crossing(self):
        rec = riemannian_main_check(linear_family(diag(-0.5), diag(1.0), 1.0))
        assert rec.passed
        assert rec.sfl_raw == rec.index_raw == 1

    def test_singular_start_triggers_regularization(self):
        rec = riemannian_main_check(linear_family(diag(0.0), diag(1.0), 1.0))
        assert rec.regularized and rec.passed
        assert rec.sfl_raw == 0  # starts at zero, already nonnegative
        assert rec.sfl_regularized == 0 and rec.index_regularized == 0

    def test_random_singular_endpoints(self, rng):
        for _ in range(5):
            f = singular_endpoint_family(3, rng)
            rec = riemannian_main_check(f, 48)
            assert rec.regularized and rec.passed

    def test_mismatch_raises_with_both_integers(self, monkeypatch):
        monkeypatch.setattr(apsindex, "spectral_flow", flow_plus_one(spectral_flow))
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        with pytest.raises(ConsistencyError, match="sfl=2, index=1") as exc:
            riemannian_main_check(f, 16)
        assert exc.value.record.passed is False
        assert not riemannian_main_check(f, 16, raise_on_mismatch=False).passed


class TestDerivativeRequired:
    """Flow certificates read ``A'``; a family without one gets a typed error, not a guess."""

    @staticmethod
    def _pair():
        f = linear_family(diag(-0.5, 0.25), diag(1.0, 0.5), 1.0)
        return f, replace(f, derivative_fn=None)

    def test_every_flow_route_raises(self):
        _, g = self._pair()
        prop = propagate(g, 64)
        checks = (
            lambda: spectral_flow(g),
            lambda: spectralflow.running_flows(g, [0.5, 1.0]),
            lambda: spectralflow.flowind_check(g),
            lambda: lorentzian_main_check(g, prop),
            lambda: riemannian_main_check(g, 16),
        )
        for check in checks:
            with pytest.raises(FamilyConstructionError, match="has no derivative"):
                check()

    def test_derivative_at_raises(self):
        _, g = self._pair()
        with pytest.raises(FamilyConstructionError, match="'linear' has no derivative"):
            g.derivative_at(0.5)

    def test_the_time_reversal_has_none_either(self):
        _, g = self._pair()
        reversed_g = g.time_reversed()
        assert reversed_g.derivative_fn is None
        with pytest.raises(FamilyConstructionError, match=r"'linear\(reversed\)' has no derivative"):
            spectral_flow(reversed_g)

    def test_endpoint_regularize_raises_before_it_wraps(self):
        singular = replace(linear_family(diag(0.0, -0.5), diag(1.0, 1.0), 1.0), derivative_fn=None)
        with pytest.raises(FamilyConstructionError, match="'linear' has no derivative"):
            endpoint_regularize(singular)
        _, g = self._pair()  # invertible endpoints: returned as it is, nothing wrapped
        assert endpoint_regularize(g) is g

    def test_boundary_value_routes_never_read_it(self):
        f, g = self._pair()
        for route in (
            lambda h: riemannian_index_discretized(h, 16),
            riemannian_kernel_shooting,
        ):
            want, got = route(f), route(g)
            assert (got.ker_dim, got.coker_dim) == (want.ker_dim, want.coker_dim)


class TestAmbiguousCutAdvice:
    def test_error_recommends_regularization(self):
        # an eigenvalue in the ambiguous band (above snapping, below the gap
        # tolerance) at the far endpoint cannot be classified
        f = constant_family(diag(5e-8, 1.0), 1.0)
        p = propagate(f, 64)
        from apsflow.errors import AmbiguousSpectralCutError

        with pytest.raises(AmbiguousSpectralCutError, match="endpoint_regularize"):
            lorentzian_index_projection(f, p)


TRANSPORT_ROUTES = (lorentzian_main_check, lorentzian_index_projection, lorentzian_index_subspace)


class TestPropagatorOfAnotherFamily:
    """Every transport route rejects a propagator of another dimension or horizon."""

    @pytest.mark.parametrize("route", TRANSPORT_ROUTES, ids=lambda r: r.__name__)
    def test_shorter_horizon_raises(self, route):
        # the same matrices on [0, 2] and on [0, 1]: the grid of [0, 1] holds no time T = 2
        long = linear_family(diag(-0.5, 1.0), diag(1.0, -0.5), 2.0)
        p = propagate(replace(long, horizon=1.0), 64)
        with pytest.raises(ConsistencyError, match=r"propagator on \[0, 1\.0\] .* on \[0, 2\.0\]"):
            route(long, p)

    @pytest.mark.parametrize("route", TRANSPORT_ROUTES, ids=lambda r: r.__name__)
    def test_longer_horizon_raises(self, route):
        f = linear_family(diag(-0.5, 1.0), diag(1.0, -0.5), 1.0)
        p = propagate(replace(f, horizon=2.0), 64)
        with pytest.raises(ConsistencyError, match=r"propagator on \[0, 2\.0\]"):
            route(f, p)

    @pytest.mark.parametrize("route", TRANSPORT_ROUTES, ids=lambda r: r.__name__)
    def test_other_dimension_raises(self, route):
        f = constant_family(diag(-1.0, 1.0), 1.0)
        p = propagate(constant_family(diag(-1.0, 1.0, 2.0), 1.0), 64)
        with pytest.raises(DimensionMismatchError, match="dimension 3 .* dimension 2"):
            route(f, p)

    @pytest.mark.parametrize("route", TRANSPORT_ROUTES, ids=lambda r: r.__name__)
    def test_horizon_past_the_family_clock_raises(self, route):
        # within index_of's 1e-9, but the family's clock reads no time past 1 + CLOCK_ATOL
        f = constant_family(diag(-1.0, 1.0), 1.0)
        p = propagate(replace(f, horizon=1.0 + 1e-10), 64)
        with pytest.raises(ConsistencyError, match=r"propagator on \[0, 1\.0000000001\]"):
            route(f, p)

    @pytest.mark.parametrize("route", TRANSPORT_ROUTES, ids=lambda r: r.__name__)
    def test_horizon_within_the_grid_tolerance_passes(self, route):
        f = constant_family(diag(-1.0, 1.0), 1.0)
        p = propagate(replace(f, horizon=1.0 - 1e-10), 64)
        assert route(f, p)


class TestImportedPropagatorReplay:
    def test_external_propagator_through_index_pipeline(self, tmp_path):
        from apsflow.evolution import read_propagator, write_propagator

        f = counterexample_family([1.0, 2.0])
        p = propagate(f, 2**10)
        path = tmp_path / "prop.json"
        write_propagator(p, path)
        replayed = read_propagator(path)
        rep = lorentzian_index_subspace(f, replayed)
        assert (rep.ker_dim, rep.coker_dim, rep.index) == (2, 2, 0)


class TestRegularizationInvariance:
    def test_flow_and_index_unchanged(self, rng):
        for _ in range(5):
            f = singular_endpoint_family(3, rng)
            b = endpoint_regularize(f, 0.1)
            assert spectral_flow(b).value == spectral_flow(f).value
            ra = riemannian_index_discretized(f, 48)
            rb = riemannian_index_discretized(b, 48)
            assert ra.index == rb.index
