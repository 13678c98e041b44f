import numpy as np
import pytest
import scipy.linalg

from apsflow import evolution
from apsflow.errors import ConsistencyError, DimensionMismatchError, OffGridError, StiffnessError
from apsflow.evolution import (
    SCHEME_CF4,
    SCHEME_MIDPOINT,
    cauchy_residual,
    cauchy_solve,
    closed_form_counterexample_propagator,
    closed_form_swap_propagator,
    convergence_study,
    evolved_family,
    evolved_projection,
    nonunitary_propagate,
    propagate,
    propagator_from_payload,
    propagator_to_payload,
    q_between,
    read_propagator,
    write_propagator,
)
from apsflow.families import (
    OperatorFamily,
    constant_family,
    counterexample_family,
    linear_family,
    swap_block_family,
)
from apsflow.matrixcore import (
    NEGATIVE_AXIS,
    HermitianMatrix,
    eigh,
    hermitian_stack,
    spectral_projection,
)
from apsflow.zoo import random_trig_family, random_zoo
from conftest import numpy_peak


def diag(*vals):
    return HermitianMatrix(np.diag(np.asarray(vals, dtype=float)))


class TestPropagate:
    def test_constant_family_exact(self):
        # oracle: scipy expm of the constant generator
        a0 = diag(-1.0, 1.0)
        f = constant_family(a0, 1.0)
        p = propagate(f, 64)
        for t in [0.25, 0.5, 1.0]:
            exact = scipy.linalg.expm(1j * t * a0.entries)
            assert np.max(np.abs(q_between(p, t, 0.0) - exact)) < 1e-13

    def test_unitarity_invariant(self, rng):
        f = random_trig_family(4, rng)
        for scheme in (SCHEME_MIDPOINT, SCHEME_CF4):
            p = propagate(f, 128, scheme=scheme)
            assert p.unitarity_defect() <= 1e-10
            assert np.array_equal(p.unitaries[0], np.eye(4))

    def test_isometry(self, rng):
        f = random_trig_family(3, rng)
        p = propagate(f, 128)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for k in [10, 64, 128]:
            assert np.linalg.norm(p.unitaries[k] @ x) == pytest.approx(
                np.linalg.norm(x), abs=1e-10
            )

    def test_swap_block_matches_closed_form(self):
        f = swap_block_family(-1.0, 1.0)
        p = propagate(f, 2**12)
        exact = closed_form_swap_propagator(-1.0, 1.0, 1.0)
        assert np.linalg.norm(p.unitaries[-1] - exact, 2) < 1e-6

    def test_order_two_richardson(self, rng):
        f = random_trig_family(3, rng)
        study = convergence_study(f, base_intervals=64)
        for ratio in study.ratios:
            assert 3.5 <= ratio <= 4.5

    def test_order_four_richardson(self):
        f = swap_block_family(-1.0, 1.0)
        study = convergence_study(f, scheme=SCHEME_CF4, base_intervals=16)
        for ratio in study.ratios:
            assert 12.0 <= ratio <= 20.0

    def test_cost_warning_over_budget(self, monkeypatch, rng):
        f = random_trig_family(2, rng)
        assert propagate(f, 8).warnings == ()
        monkeypatch.setattr(evolution, "COST_BUDGET", 10.0)
        warnings = propagate(f, 8).warnings  # cost 8 substeps x 2^3 = 64
        assert len(warnings) == 1
        assert "propagation cost 6.40e+01" in warnings[0]


class TestQBetween:
    def test_identity_at_equal_times(self, rng):
        f = random_trig_family(3, rng)
        p = propagate(f, 32)
        for t in [0.0, 0.5, 1.0]:
            assert np.max(np.abs(q_between(p, t, t) - np.eye(3))) < 1e-12

    def test_cocycle(self, rng):
        f = random_trig_family(3, rng)
        p = propagate(f, 64)
        ts = p.grid[[3, 17, 40, 64]]
        for t in ts:
            for s in ts:
                for r in ts:
                    lhs = q_between(p, t, s) @ q_between(p, s, r)
                    assert np.max(np.abs(lhs - q_between(p, t, r))) < 1e-9

    def test_off_grid_rejected(self, rng):
        f = random_trig_family(2, rng)
        p = propagate(f, 16)
        with pytest.raises(OffGridError, match="refine the grid"):
            q_between(p, 1.0 / 3.0, 0.0)


class TestEvolvedFamily:
    def test_constant_family_fixed(self):
        a0 = diag(-1.0, 2.0)
        f = constant_family(a0, 1.0)
        p = propagate(f, 32)
        hat = evolved_family(f, p)
        for t in [0.0, 0.5, 1.0]:
            assert np.max(np.abs(hat.at(t).entries - a0.entries)) < 1e-12

    def test_spectrum_preserved(self, rng):
        f = random_trig_family(4, rng)
        p = propagate(f, 256)
        hat = evolved_family(f, p)
        for k in [0, 100, 256]:
            t = float(p.grid[k])
            w_f = np.linalg.eigvalsh(f.at(t).entries)
            w_h = np.linalg.eigvalsh(hat.at(t).entries)
            assert np.max(np.abs(w_f - w_h)) < 1e-10

    def test_counterexample_endpoint_swapped(self):
        # oracle: the closed-form propagator is off-diagonal at t = 1, so the
        # evolved endpoint operator is the swap of diag(-1, 1)
        f = counterexample_family([1.0])
        p = propagate(f, 2**10)
        hat = evolved_family(f, p)
        assert np.max(np.abs(hat.at(1.0).entries - np.diag([1.0, -1.0]))) < 1e-4


class TestEvolvedProjection:
    def test_at_time_zero_plain(self, rng):
        f = random_trig_family(3, rng)
        p = propagate(f, 32)
        direct = spectral_projection(eigh(f.at(0.0)), NEGATIVE_AXIS)
        hat = evolved_projection(f, p, 0.0)
        assert np.max(np.abs(direct.matrix.entries - hat.matrix.entries)) < 1e-12

    def test_rank_preserved(self, rng):
        f = random_trig_family(4, rng)
        p = propagate(f, 64)
        for t in [0.25, 0.75, 1.0]:
            base = spectral_projection(eigh(f.at(t)), NEGATIVE_AXIS)
            hat = evolved_projection(f, p, t)
            assert hat.rank == base.rank

    def test_counterexample_swaps_line(self):
        # oracle: q(1,0)* diag(1,0) q(1,0) = diag(0,1) blockwise
        f = counterexample_family([1.0])
        p = propagate(f, 2**12)
        hat = evolved_projection(f, p, 1.0)
        assert np.max(np.abs(hat.matrix.entries - np.diag([0.0, 1.0]))) < 1e-5


class TestClosedForm:
    def test_identity_at_zero(self):
        assert np.allclose(closed_form_swap_propagator(-1.0, 1.0, 0.0), np.eye(2))

    def test_swaps_basis_at_one(self):
        q = closed_form_swap_propagator(-1.0, 1.0, 1.0)
        image = q @ np.array([1.0, 0.0])
        assert abs(image[0]) < 1e-14 and abs(abs(image[1]) - 1.0) < 1e-14

    def test_unitary_everywhere(self):
        for t in np.linspace(0.0, 1.0, 17):
            q = closed_form_swap_propagator(0.3, -2.0, t)
            assert np.max(np.abs(q.conj().T @ q - np.eye(2))) < 1e-14

    def test_solves_the_transport_equation(self):
        # finite-difference residual of dq/dt = i (a + b(t)) q
        f = swap_block_family(-1.0, 1.0)
        h = 1e-6
        worst = 0.0
        for t in np.linspace(2 * h, 1.0 - 2 * h, 100):
            qp = closed_form_swap_propagator(-1.0, 1.0, t + h)
            qm = closed_form_swap_propagator(-1.0, 1.0, t - h)
            qd = (qp - qm) / (2.0 * h)
            rhs = 1j * f.at(t).entries @ closed_form_swap_propagator(-1.0, 1.0, t)
            worst = max(worst, float(np.max(np.abs(qd - rhs))))
        assert worst < 1e-8

    def test_blockwise_assembly(self):
        q = closed_form_counterexample_propagator([1.0, 2.0], 0.7)
        assert q.shape == (4, 4)
        assert np.allclose(q[:2, :2], closed_form_swap_propagator(-1.0, 1.0, 0.7))
        assert np.allclose(q[2:, 2:], closed_form_swap_propagator(-2.0, 2.0, 0.7))

    def test_rejects_time_outside_unit_interval(self):
        with pytest.raises(ValueError):
            closed_form_swap_propagator(-1.0, 1.0, 1.5)


class TestCauchySolve:
    def test_phase_evolution_of_eigenvector(self):
        a0 = diag(-1.0, 2.0)
        f = constant_family(a0, 1.0)
        p = propagate(f, 64)
        x = np.array([1.0, 0.0], dtype=complex)  # eigenvector, eigenvalue -1
        traj = cauchy_solve(f, p, 0.0, x)
        for k in [16, 32, 64]:
            t = float(p.grid[k])
            assert np.max(np.abs(traj.values[k] - np.exp(-1j * t) * x)) < 1e-12

    def test_zero_data_zero_solution(self, rng):
        f = random_trig_family(3, rng)
        p = propagate(f, 32)
        traj = cauchy_solve(f, p, 0.5, np.zeros(3))
        assert np.max(np.abs(traj.values)) == 0.0

    def test_constant_source_integrates_linearly(self):
        # oracle: with A = 0 and g = 1 the solution from 0 is f(t) = t
        f = constant_family(diag(0.0), 1.0)
        p = propagate(f, 128)
        traj = cauchy_solve(f, p, 0.0, np.zeros(1), lambda t: np.array([1.0]))
        assert np.max(np.abs(traj.values[:, 0] - p.grid)) < 1e-10

    def test_matches_transport_without_source(self, rng):
        f = random_trig_family(3, rng)
        p = propagate(f, 64)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        traj = cauchy_solve(f, p, 0.25, x)
        for t in [0.0, 0.5, 1.0]:
            k = p.index_of(t)
            expected = q_between(p, t, 0.25) @ x
            assert np.max(np.abs(traj.values[k] - expected)) < 1e-9

    def test_anchor_holds_backward_in_time(self, rng):
        f = random_trig_family(2, rng)
        p = propagate(f, 64)
        x = np.array([1.0, 1j])
        g = lambda t: np.array([np.sin(t), np.cos(t)], dtype=complex)
        traj = cauchy_solve(f, p, 1.0, x, g)
        assert np.max(np.abs(traj.values[p.index_of(1.0)] - x)) < 1e-12

    def test_residual_second_order(self, rng):
        f = random_trig_family(3, rng)
        g = lambda t: np.array([np.sin(t), 0.0, np.cos(2 * t)], dtype=complex)
        x = rng.standard_normal(3) + 0j
        res = []
        for intervals in (64, 128, 256):
            p = propagate(f, intervals)
            traj = cauchy_solve(f, p, 0.0, x, g)
            res.append(cauchy_residual(f, traj, g))
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.3)
        assert res[1] / res[2] == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize("shape", [(17, 1), (17,), (16, 2)])
    def test_misshaped_source_rejected_by_solve_and_residual(self, rng, shape):
        f = random_trig_family(2, rng)
        p = propagate(f, 16)
        traj = cauchy_solve(f, p, 0.0, np.array([1.0, 0.0]))
        g = np.ones(shape)
        with pytest.raises(DimensionMismatchError, match="source samples"):
            cauchy_solve(f, p, 0.0, np.array([1.0, 0.0]), g)
        with pytest.raises(DimensionMismatchError, match="source samples"):
            cauchy_residual(f, traj, g)


class TestNonunitaryPropagate:
    def test_scalar_decay(self):
        f = constant_family(diag(-0.5), 1.0)
        r = nonunitary_propagate(f, 128)
        assert r.transfer[0, 0] == pytest.approx(np.exp(0.5), rel=1e-6)

    def test_positive_eigenvalue_decays(self):
        f = constant_family(diag(2.0), 1.0)
        r = nonunitary_propagate(f, 128)
        assert r.transfer[0, 0] == pytest.approx(np.exp(-2.0), rel=1e-6)

    def test_commutative_case_exact_integral(self):
        # oracle: scalar equation integrates to exp(-integral of (t - 1/2))
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        r = nonunitary_propagate(f, 256)
        assert r.transfer[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_stiffness_guard(self):
        f = constant_family(diag(100.0), 1.0)
        message = r"\|\|A\|\| \* T = 100 exceeds the stiffness bound 40; shrink the horizon"
        with pytest.raises(StiffnessError, match=message):
            nonunitary_propagate(f)

    def test_a_tuple_is_a_family_and_its_reversal(self):
        f = constant_family(diag(-0.5), 1.0)
        with pytest.raises(ValueError, match="pair of families, got 1"):
            nonunitary_propagate((f,))
        forward, backward = nonunitary_propagate((f, f.time_reversed()), 16)
        assert forward.transfer.tobytes() == nonunitary_propagate(f, 16).transfer.tobytes()
        assert backward.family_label == f.time_reversed().label

    def test_condition_warning_under_the_stiffness_gate(self):
        # ||A|| T = 19 passes the gate; cond R(1, 0) = e^38 exceeds 1e12
        f = constant_family(diag(-19.0, 19.0), 1.0)
        r = nonunitary_propagate(f, 64)
        assert r.condition == pytest.approx(np.exp(38.0), rel=1e-6)
        assert len(r.warnings) == 1
        assert "condition number reaches" in r.warnings[0]

    def test_transfer_is_the_end_product(self, rng):
        # the shared integrator loop's last product, bit for bit, and its condition number
        f = random_trig_family(3, rng)
        r = nonunitary_propagate(f, 64)
        products = evolution._transfer_products((f,), 64, 1, SCHEME_MIDPOINT, -1.0)[1]
        assert r.transfer.shape == (3, 3)
        assert np.array_equal(r.transfer, products[-1])
        sigma = np.linalg.svd(r.transfer, compute_uv=False)
        assert r.condition == sigma[0] / sigma[-1]
        assert r.condition > 1.0


def one_shot_products(family, intervals, steps, scheme, factor_sign):
    """The integrator as one batch: every generator and factor at once, then a plain loop."""
    grid = np.linspace(0.0, family.horizon, intervals + 1)
    sub = np.linspace(grid[0], grid[-1], intervals * steps + 1)
    h_sub = float(sub[1] - sub[0])
    h = factor_sign * (float(grid[-1] - grid[0]) / (intervals * steps))
    if scheme == SCHEME_MIDPOINT:
        factors = evolution._expi_hermitian_batch(family.at_many(sub[:-1] + h_sub / 2.0), h)
    else:
        node = np.sqrt(3.0) / 6.0
        alpha, beta = 0.25 + node, 0.25 - node
        a1 = family.at_many(sub[:-1] + (0.5 - node) * h_sub)
        a2 = family.at_many(sub[:-1] + (0.5 + node) * h_sub)
        first = evolution._expi_hermitian_batch(alpha * a1 + beta * a2, h)
        second = evolution._expi_hermitian_batch(beta * a1 + alpha * a2, h)
        factors = np.einsum("kij,kjl->kil", second, first)
    products = [np.eye(family.dim, dtype=complex)]
    for k in range(intervals):
        product = products[-1]
        for factor in factors[k * steps : (k + 1) * steps]:
            product = factor @ product
        products.append(product)
    return np.stack(products)


def streamed_families():
    rng = np.random.default_rng(7)
    return {
        1: random_trig_family(1, rng),
        2: random_trig_family(2, rng),
        16: random_trig_family(16, rng),
        32: counterexample_family(np.arange(1.0, 17.0)),
    }


class TestStreamedIntegrator:
    """The chunked integrator loop gives the bits of the one-shot batch, in bounded memory."""

    FAMILIES = streamed_families()

    @pytest.mark.parametrize("n", sorted(FAMILIES))
    @pytest.mark.parametrize("intervals", [7, 1024])
    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("scheme", [SCHEME_MIDPOINT, SCHEME_CF4])
    def test_products_match_the_one_shot_batch(self, scheme, steps, intervals, n):
        f = self.FAMILIES[n]
        reference = one_shot_products(f, intervals, steps, scheme, 1j)
        p = propagate(f, intervals, steps, scheme=scheme)
        assert p.unitaries.shape == reference.shape
        assert np.array_equal(p.unitaries, reference)
        gram = np.einsum("kji,kjl->kil", reference.conj(), reference)
        defect = float(np.max(np.abs(gram - np.eye(n))))
        assert p.unitarity_defect() == defect

    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_transfer_matches_the_one_shot_batch(self, n):
        f = self.FAMILIES[n]
        reference = one_shot_products(f, 512, 1, SCHEME_MIDPOINT, -1.0)
        assert np.array_equal(nonunitary_propagate(f, 512).transfer, reference[-1])

    def test_propagate_holds_its_unitaries_and_a_small_buffer(self):
        f = random_trig_family(16, np.random.default_rng(3))
        propagate(f, 8)  # first-call allocations of the linear-algebra kernels
        p, peak = numpy_peak(lambda: propagate(f, 1024))
        assert peak - p.unitaries.nbytes <= 2 * 2**20

    def test_shooting_holds_only_a_small_buffer(self):
        f = random_trig_family(16, np.random.default_rng(3))
        nonunitary_propagate(f, 8)
        _, peak = numpy_peak(lambda: nonunitary_propagate(f, 512))
        assert peak <= 2 * 2**20

    def test_gram_matches_the_strided_einsum_bit_for_bit(self):
        # the contiguous-axis Gram matrix of _unitarity_defect keeps the summation order
        rng = np.random.default_rng(5)
        stacks = [propagate(f, 256).unitaries for f in random_zoo(12, 3, sizes=(2, 3, 4, 8, 16))]
        stacks += [
            propagate(counterexample_family(np.arange(1.0, m + 1.0)), 64).unitaries
            for m in range(1, 17)
        ]
        stacks += [
            rng.standard_normal((9, n, n)) + 1j * rng.standard_normal((9, n, n))
            for n in range(1, 34)
        ]
        for u in stacks:
            chunk = evolution._chunk_length(u.shape[-1])
            for start in range(0, u.shape[0], chunk):
                c = u[start : start + chunk]
                strided = np.einsum("kji,kjl->kil", c.conj(), c)
                assert evolution._gram(c).tobytes() == strided.tobytes()

    def test_late_non_hermitian_chunk_raises_the_one_shot_error(self):
        # Hermitian up to t = 0.9, then an upper-triangular defect that grows with t
        rng = np.random.default_rng(11)
        base = random_trig_family(16, rng)
        skew = np.zeros((16, 16))
        skew[0, 1] = 1.0

        def eval_fn(t):
            tt = np.asarray(t, dtype=float)[..., None, None]
            return base.eval_fn(t) + np.maximum(tt - 0.9, 0.0) * skew

        f = OperatorFamily(dim=16, horizon=1.0, label="late-defect", eval_fn=eval_fn)
        mids = np.linspace(0.0, 1.0, 1025)[:-1] + 0.5 / 1024
        with pytest.raises(ValueError) as one_shot:
            hermitian_stack(eval_fn(mids))
        assert "not Hermitian" in str(one_shot.value)
        with pytest.raises(ValueError) as streamed:
            propagate(f, 1024)
        assert str(streamed.value) == str(one_shot.value)


class TestSerialization:
    def test_payload_roundtrip(self, rng):
        f = random_trig_family(2, rng)
        p = propagate(f, 16)
        q = propagator_from_payload(propagator_to_payload(p))
        assert np.max(np.abs(q.unitaries - p.unitaries)) < 1e-15
        assert np.array_equal(q.grid, p.grid)

    def test_file_roundtrip(self, tmp_path, rng):
        f = random_trig_family(2, rng)
        p = propagate(f, 16)
        path = tmp_path / "prop.json"
        write_propagator(p, path)
        q = read_propagator(path)
        assert np.max(np.abs(q.unitaries - p.unitaries)) < 1e-15

    def test_import_revalidates_unitarity(self, rng):
        f = random_trig_family(2, rng)
        p = propagate(f, 8)
        payload = propagator_to_payload(p)
        payload["unitaries_re_im"][3][0] += 0.5  # corrupt one entry
        with pytest.raises(ConsistencyError, match="unitarity"):
            propagator_from_payload(payload)
