import math
from dataclasses import replace

import numpy as np
import pytest

from apsflow import apsindex, evolution
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
from apsflow.errors import ConsistencyError, StiffnessError
from apsflow.evolution import nonunitary_propagate, propagate
from apsflow.families import (
    OperatorFamily,
    constant_family,
    counterexample_family,
    endpoint_regularize,
    linear_family,
    sampled_family,
)
from apsflow.matrixcore import SHOOTING_ANGLE_TOL, TAU_ZERO, HermitianMatrix, rank_kernel
from apsflow.spectralflow import spectral_flow
from apsflow.zoo import random_trig_family, random_zoo, shipped_families, singular_endpoint_family
from conftest import diag_at, flow_plus_one, numpy_peak, subspace_intersection


def diag(*vals):
    return HermitianMatrix(np.diag(np.asarray(vals, dtype=float)))


def negative_count(family, t):
    w = np.linalg.eigvalsh(family.at(t).entries)
    return int(np.count_nonzero(w < -TAU_ZERO))


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
    "crossing-at-checkpoint": lambda: linear_family(diag(-0.5), diag(1.0), 1.0),
    "tangent-touch": _tangent_touch,
    "pinned-zero": lambda: linear_family(diag(0.0, -0.5), diag(0.0, 1.0), 1.0),
    "two-crossings": lambda: linear_family(diag(-0.25, 0.75), diag(1.0, -1.0), 1.0),
}


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
        from apsflow.evolution import q_between
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
        from apsflow.evolution import evolved_projection
        from apsflow.matrixcore import NEGATIVE_AXIS, eigh, relative_index, spectral_projection

        f = random_trig_family(3, rng)
        p = propagate(f, 256)
        left_plain = spectral_projection(eigh(f.at(0.0)), NEGATIVE_AXIS)
        left_evolved = evolved_projection(f, p, 0.0)
        right = evolved_projection(f, p, 1.0)
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
        original = apsindex.spectral_flow

        def spy(family, *args, **kwargs):
            horizons.append(family.horizon)
            return original(family, *args, **kwargs)

        monkeypatch.setattr(apsindex, "spectral_flow", spy)
        rec = lorentzian_main_check(f, propagate(f, 256))
        assert rec.passed
        assert len(horizons) == 8
        assert sum(horizons) == pytest.approx(f.horizon, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(HARD_CHECKPOINT_FAMILIES))
    def test_checkpoint_flows_on_hard_inputs(self, name):
        f = HARD_CHECKPOINT_FAMILIES[name]()
        rec = lorentzian_main_check(f, propagate(f, 256))
        assert rec.passed
        assert [e.t for e in rec.checkpoints] == [0.125 * j for j in range(1, 9)]
        for e in rec.checkpoints:
            assert e.sfl == spectral_flow(f.restricted(0.0, e.t)).value
            assert e.sfl == negative_count(f, 0.0) - negative_count(f, e.t)

    def test_mismatch_raises_with_both_integers(self, monkeypatch):
        monkeypatch.setattr(apsindex, "spectral_flow", flow_plus_one(spectral_flow))
        f = constant_family(diag(-1.0, 1.0), 1.0)
        p = propagate(f, 64)
        # each of the 8 windows now adds one to the running flow; the index stays 0
        with pytest.raises(ConsistencyError, match=r"\(0\.125, 0, 1\).*\(1\.0, 0, 8\)") as exc:
            lorentzian_main_check(f, p)
        assert exc.value.record.passed is False
        assert not lorentzian_main_check(f, p, raise_on_mismatch=False).passed


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
            left = riemannian_index_discretized(f.restricted(0.0, s), 32).index
            right = riemannian_index_discretized(f.restricted(s, 1.0), 32).index
            assert whole == left + right


class TestNonFiniteCayleyBasis:
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_a_non_finite_step_factor_is_a_typed_error(self, monkeypatch):
        solve = np.linalg.solve

        def one_inf_entry(a, b):
            factors = solve(a, b)
            factors[7, 0, 1] = np.inf
            return factors

        monkeypatch.setattr(apsindex.np.linalg, "solve", one_inf_entry)
        f = linear_family(diag(-0.5, 0.25), diag(1.0, 0.5), 1.0)
        message = "grid of 64 intervals carried H_<0.0. to a non-finite basis"
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
    """Shooting's outputs from two plain ``nonunitary_propagate`` calls that share nothing."""
    boundary = aps_boundary_data(f)
    forward = nonunitary_propagate(f)
    backward = nonunitary_propagate(f.time_reversed())
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
        assert "_norm_bound" not in vars(reversal)  # cached_property: computed only when read
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
        _, peak = numpy_peak(lambda: riemannian_kernel_shooting(f))
        factors = 512 * 16 * 16 * np.dtype(complex).itemsize
        assert peak - factors <= 2**20


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


class TestAmbiguousCutAdvice:
    def test_error_recommends_regularization(self):
        # an eigenvalue in the ambiguous band (above snapping, below the gap
        # tolerance) at the far endpoint cannot be classified
        f = constant_family(diag(5e-8, 1.0), 1.0)
        p = propagate(f, 64)
        from apsflow.errors import AmbiguousSpectralCutError

        with pytest.raises(AmbiguousSpectralCutError, match="endpoint_regularize"):
            lorentzian_index_projection(f, p)


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
