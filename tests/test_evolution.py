import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from apsflow import evolution
from apsflow.apsindex import riemannian_kernel_shooting
from apsflow.errors import ConsistencyError, OffGridError, StiffnessError
from apsflow.evolution import (
    SCHEME_CF4,
    SCHEME_MIDPOINT,
    closed_form_counterexample_propagator,
    closed_form_swap_propagator,
    convergence_study,
    evolved_projections,
    nonunitary_propagate,
    propagate,
    propagator_from_payload,
    propagator_to_payload,
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
from conftest import (
    cauchy_residual,
    cauchy_solve,
    evolved_family,
    numpy_peak,
    one_shot_products,
    plain_shots,
    q_between,
)


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
        (hat,), _ = evolved_projections(f, p, [0.0])
        assert np.max(np.abs(direct.matrix.entries - hat)) < 1e-12

    def test_rank_preserved(self, rng):
        f = random_trig_family(4, rng)
        p = propagate(f, 64)
        _, ranks = evolved_projections(f, p, [0.25, 0.75, 1.0])
        for t, rank in zip([0.25, 0.75, 1.0], ranks):
            assert rank == spectral_projection(eigh(f.at(t)), NEGATIVE_AXIS).rank

    def test_counterexample_swaps_line(self):
        # oracle: q(1,0)* diag(1,0) q(1,0) = diag(0,1) blockwise
        f = counterexample_family([1.0])
        p = propagate(f, 2**12)
        (hat,), _ = evolved_projections(f, p, [1.0])
        assert np.max(np.abs(hat - np.diag([0.0, 1.0]))) < 1e-5


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
        values = cauchy_solve(p, 0.0, x)
        for k in [16, 32, 64]:
            t = float(p.grid[k])
            assert np.max(np.abs(values[k] - np.exp(-1j * t) * x)) < 1e-12

    def test_zero_data_zero_solution(self, rng):
        f = random_trig_family(3, rng)
        p = propagate(f, 32)
        assert np.max(np.abs(cauchy_solve(p, 0.5, np.zeros(3)))) == 0.0

    def test_constant_source_integrates_linearly(self):
        # oracle: with A = 0 and g = 1 the solution from 0 is f(t) = t
        f = constant_family(diag(0.0), 1.0)
        p = propagate(f, 128)
        values = cauchy_solve(p, 0.0, np.zeros(1), lambda t: np.array([1.0]))
        assert np.max(np.abs(values[:, 0] - p.grid)) < 1e-10

    def test_matches_transport_without_source(self, rng):
        f = random_trig_family(3, rng)
        p = propagate(f, 64)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        values = cauchy_solve(p, 0.25, x)
        for t in [0.0, 0.5, 1.0]:
            k = p.index_of(t)
            expected = q_between(p, t, 0.25) @ x
            assert np.max(np.abs(values[k] - expected)) < 1e-9

    def test_anchor_holds_backward_in_time(self, rng):
        f = random_trig_family(2, rng)
        p = propagate(f, 64)
        x = np.array([1.0, 1j])
        g = lambda t: np.array([np.sin(t), np.cos(t)], dtype=complex)
        values = cauchy_solve(p, 1.0, x, g)
        assert np.max(np.abs(values[p.index_of(1.0)] - x)) < 1e-12

    def test_residual_second_order(self, rng):
        f = random_trig_family(3, rng)
        g = lambda t: np.array([np.sin(t), 0.0, np.cos(2 * t)], dtype=complex)
        x = rng.standard_normal(3) + 0j
        res = []
        for intervals in (64, 128, 256):
            p = propagate(f, intervals)
            res.append(cauchy_residual(f, p.grid, cauchy_solve(p, 0.0, x, g), g))
        assert res[0] / res[1] == pytest.approx(4.0, rel=0.3)
        assert res[1] / res[2] == pytest.approx(4.0, rel=0.3)


class TestNonunitaryPropagate:
    def test_scalar_decay(self):
        f = constant_family(diag(-0.5), 1.0)
        forward, backward = nonunitary_propagate(f, 128)
        assert forward.transfer[0, 0] == pytest.approx(np.exp(0.5), rel=1e-6)
        assert backward.transfer[0, 0] == pytest.approx(np.exp(0.5), rel=1e-6)

    def test_positive_eigenvalue_decays(self):
        f = constant_family(diag(2.0), 1.0)
        forward, _ = nonunitary_propagate(f, 128)
        assert forward.transfer[0, 0] == pytest.approx(np.exp(-2.0), rel=1e-6)

    def test_commutative_case_exact_integral(self):
        # oracle: scalar equation integrates to exp(-integral of (t - 1/2)); the reversal's too
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        for r in nonunitary_propagate(f, 256):
            assert r.transfer[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_stiffness_guard(self):
        f = constant_family(diag(100.0), 1.0)
        message = r"\|\|A\|\| \* T = 100 exceeds the stiffness bound 40; shrink the horizon"
        with pytest.raises(StiffnessError, match=message):
            nonunitary_propagate(f)

    def test_the_pair_is_a_family_and_its_reversal(self):
        f = linear_family(diag(-0.5, 1.0), diag(1.0, -0.25), 1.0)
        pair = nonunitary_propagate(f, 16)
        plain = plain_shots(f, 16)
        assert [r.transfer.tobytes() for r in pair] == [r.transfer.tobytes() for r in plain]
        assert [r.family_label for r in pair] == [f.label, f.time_reversed().label]

    def test_condition_warning_under_the_stiffness_gate(self):
        # ||A|| T = 19 passes the gate; cond R(1, 0) = e^38 exceeds 1e12
        f = constant_family(diag(-19.0, 19.0), 1.0)
        forward, _ = nonunitary_propagate(f, 64)
        assert forward.condition == pytest.approx(np.exp(38.0), rel=1e-6)
        assert len(forward.warnings) == 1
        assert "condition number reaches" in forward.warnings[0]

    def test_transfer_is_the_end_product(self, rng):
        # the one-shot chain's last product, bit for bit, and its condition number
        f = random_trig_family(3, rng)
        r, _ = nonunitary_propagate(f, 64)
        products = one_shot_products(f, 64, 1, SCHEME_MIDPOINT, -1.0)
        assert r.transfer.shape == (3, 3)
        assert np.array_equal(r.transfer, products[-1])
        sigma = np.linalg.svd(r.transfer, compute_uv=False)
        assert r.condition == sigma[0] / sigma[-1]
        assert r.condition > 1.0


@pytest.fixture
def fresh_pool(monkeypatch):
    """No pool yet; records each pool started and every future submitted to it.

    Yields a dict with the ``starts`` (the pool or ``None`` each start gave)
    and the ``futures``; every pool started here is shut down afterwards.
    """
    seen = {"starts": [], "futures": []}
    start = evolution._start_pool

    def spy(workers):
        pool = start(workers)
        seen["starts"].append(pool)
        if pool is not None:
            submit = pool.submit

            def recorded(*args, **kwargs):
                future = submit(*args, **kwargs)
                seen["futures"].append(future)
                return future

            pool.submit = recorded
        return pool

    monkeypatch.setattr(evolution, "_POOL", None)
    monkeypatch.setattr(evolution, "_start_pool", spy)
    yield seen
    for pool in seen["starts"]:
        if pool is not None:
            pool.shutdown()


def inline_propagate(monkeypatch, *args, **kwargs):
    """``propagate`` with the pool switched off."""
    with monkeypatch.context() as m:
        m.setattr(evolution, "_worker_pool", lambda: None)
        return propagate(*args, **kwargs)


def streamed_families():
    rng = np.random.default_rng(7)
    families = {n: random_trig_family(n, rng) for n in (1, 2, 16)}
    # sizes the one-chain np.dot loop must match np.matmul at, out= aliasing a factor when steps > 1
    families.update({n: random_trig_family(n, np.random.default_rng(n)) for n in (3, 4, 8)})
    families[32] = counterexample_family(np.arange(1.0, 17.0))
    return families


class TestStreamedIntegrator:
    """The chunked integrator loop gives the bits of the one-shot batch, in bounded memory."""

    FAMILIES = streamed_families()

    @pytest.mark.parametrize("n", sorted(FAMILIES))
    @pytest.mark.parametrize("intervals", [7, 1024])
    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("scheme", [SCHEME_MIDPOINT, SCHEME_CF4])
    def test_products_match_the_one_shot_batch(
        self, monkeypatch, fresh_pool, scheme, steps, intervals, n
    ):
        # pooled (two or more chunks) and inline (pool switched off) alike
        f = self.FAMILIES[n]
        reference = one_shot_products(f, intervals, steps, scheme, 1j)
        # the defects of the whole stack at once, from the strided Gram matrices
        gram = np.einsum("kji,kjl->kil", reference.conj(), reference)
        defects = np.max(np.abs(gram - np.eye(n)), axis=(1, 2))
        for p in (
            propagate(f, intervals, steps, scheme=scheme),
            inline_propagate(monkeypatch, f, intervals, steps, scheme=scheme),
        ):
            assert p.unitaries.shape == reference.shape
            assert p.unitaries.tobytes() == reference.tobytes()
            assert p.defects.tobytes() == defects.tobytes()
            assert p.unitarity_defect() == defects.max()
        assert all(future.done() for future in fresh_pool["futures"])

    @pytest.mark.parametrize("n", [1, 2, 16])
    def test_transfer_matches_the_one_shot_batch(self, n):
        f = self.FAMILIES[n]
        pair = nonunitary_propagate(f, 512)
        assert [r.transfer.tobytes() for r in pair] == [
            r.transfer.tobytes() for r in plain_shots(f)
        ]

    def test_propagate_holds_its_unitaries_and_a_small_buffer(self):
        f = random_trig_family(16, np.random.default_rng(3))
        propagate(f, 8)  # first-call allocations of the linear-algebra kernels
        p, peak = numpy_peak(lambda: propagate(f, 1024))
        assert peak - p.unitaries.nbytes <= 2 * 2**20

    def test_gram_matches_the_strided_einsum_bit_for_bit(self):
        # the contiguous-axis Gram matrix of _defects keeps the summation order
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

        def derivative_fn(t):
            tt = np.asarray(t, dtype=float)[..., None, None]
            return base.derivative_fn(t) + (tt > 0.9) * skew

        f = OperatorFamily(
            dim=16, horizon=1.0, label="late-defect", eval_fn=eval_fn, derivative_fn=derivative_fn
        )
        mids = np.linspace(0.0, 1.0, 1025)[:-1] + 0.5 / 1024
        with pytest.raises(ValueError) as one_shot:
            hermitian_stack(eval_fn(mids))
        assert "not Hermitian" in str(one_shot.value)
        with pytest.raises(ValueError) as streamed:
            propagate(f, 1024)
        assert str(streamed.value) == str(one_shot.value)


def two_defect_family(slow_first: bool):
    """n = 16, non-Hermitian in chunk 2 (defect 1) and chunk 3 (defect 2) of 1024 midpoints.

    With ``slow_first`` each evaluation that reaches chunk 2 sleeps 50 ms,
    so the later chunk fails first.
    """
    base = random_trig_family(16, np.random.default_rng(11))
    skew = np.zeros((16, 16))
    skew[0, 1] = 1.0

    def defect(t):
        tt = np.asarray(t, dtype=float)[..., None, None]
        return ((tt > 2 / 32) & (tt < 3 / 32)) * skew + 2.0 * ((tt > 3 / 32) & (tt < 4 / 32)) * skew

    def eval_fn(t):
        if slow_first and np.any((np.asarray(t) > 2 / 32) & (np.asarray(t) < 3 / 32)):
            time.sleep(0.05)
        return base.eval_fn(t) + defect(t)

    return OperatorFamily(
        dim=16, horizon=1.0, label="two-defects", eval_fn=eval_fn,
        derivative_fn=base.derivative_fn,
    )


class TestWorkerPool:
    """The pooled factor stream and defect give the inline bytes and leave no work behind."""

    FAMILIES = streamed_families()

    def test_pool_runs_the_stream_at_n_16(self, fresh_pool):
        propagate(self.FAMILIES[16], 1024)
        assert len(fresh_pool["starts"]) == 1 and fresh_pool["starts"][0] is not None
        # 32 factor chunks; the defects are taken on the calling thread
        assert len(fresh_pool["futures"]) == 32

    def test_pool_is_never_started_for_one_chunk(self, fresh_pool):
        for n in (1, 2):
            propagate(self.FAMILIES[n], 1024, scheme=SCHEME_CF4)
        nonunitary_propagate(self.FAMILIES[2], 512)
        assert fresh_pool["starts"] == []

    def test_pool_is_never_started_by_shooting(self, fresh_pool):
        rep = riemannian_kernel_shooting(self.FAMILIES[16])
        assert rep.method and fresh_pool["starts"] == []

    @pytest.mark.parametrize("slow_first", [False, True])
    def test_earliest_failing_chunk_raises_and_no_work_is_left(self, fresh_pool, slow_first):
        f = two_defect_family(slow_first)
        mids = np.linspace(0.0, 1.0, 1025)[:-1] + 0.5 / 1024
        with pytest.raises(ValueError) as one_shot:
            hermitian_stack(f.eval_fn(mids))
        assert "not Hermitian: max |H - H*| = 1.000e+00" in str(one_shot.value)
        with pytest.raises(ValueError) as pooled:
            propagate(f, 1024)
        assert str(pooled.value) == str(one_shot.value)
        futures = fresh_pool["futures"]
        assert len(futures) > 4  # chunks 0-3, both failing chunks among them, and more
        assert all(future.done() for future in futures)

    def test_an_early_close_cancels_the_queued_and_waits_for_the_running(self, fresh_pool):
        release = threading.Event()
        stream = evolution._in_order(lambda k: k if k == 0 else release.wait(5.0), range(10))
        assert next(stream) == 0
        futures = fresh_pool["futures"]
        deadline = time.monotonic() + 5.0
        while not (futures[1].running() and futures[2].running()) and time.monotonic() < deadline:
            time.sleep(0.001)
        # chunks 1 and 2 run on the two workers, chunk 3 is queued
        threading.Timer(0.1, release.set).start()
        stream.close()
        assert len(futures) == 4 and all(future.done() for future in futures)
        assert [future.cancelled() for future in futures] == [False, False, False, True]

    def test_concurrent_callers_share_one_pool_and_keep_their_bytes(self, monkeypatch, fresh_pool):
        families = [self.FAMILIES[n] for n in (3, 8, 16)]
        references = [inline_propagate(monkeypatch, f, 1024).unitaries for f in families]
        results = [None] * len(families)

        def run(j):
            results[j] = propagate(families[j], 1024).unitaries

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            callers = [threading.Thread(target=run, args=(j,)) for j in range(len(families))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(fresh_pool["starts"]) == 1
        for result, reference in zip(results, references):
            assert result.tobytes() == reference.tobytes()

    def test_one_cpu_runs_inline(self, monkeypatch, fresh_pool):
        f = self.FAMILIES[16]
        reference = inline_propagate(monkeypatch, f, 1024)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        p = propagate(f, 1024)
        assert fresh_pool["starts"] == [None] and evolution._POOL == (os.getpid(), None)
        assert p.unitaries.tobytes() == reference.unitaries.tobytes()
        assert p.unitarity_defect() == reference.unitarity_defect()

    @pytest.mark.parametrize("failing_start", [1, 2])
    def test_a_failing_thread_start_runs_inline(self, monkeypatch, fresh_pool, failing_start):
        f = self.FAMILIES[16]
        reference = inline_propagate(monkeypatch, f, 1024)
        start = threading.Thread.start
        calls = []

        def start_or_fail(thread):
            calls.append(thread)
            if len(calls) == failing_start:
                raise RuntimeError("can't start new thread")
            start(thread)

        with monkeypatch.context() as m:
            m.setattr(threading.Thread, "start", start_or_fail)
            p = propagate(f, 1024)
        assert fresh_pool["starts"] == [None] and len(calls) == failing_start
        assert all(not thread.is_alive() for thread in calls)
        assert p.unitaries.tobytes() == reference.unitaries.tobytes()
        assert p.unitarity_defect() == reference.unitarity_defect()

    def test_importing_the_package_loads_no_thread_pool(self):
        code = (
            "import sys, apsflow.cli, apsflow.evolution; "
            "print('concurrent.futures' in sys.modules)"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


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

    @pytest.mark.parametrize(
        "n,intervals,k,corrupt",
        [
            (2, 8, 3, lambda x: x + 0.5),
            # U_1000 in the second of three defect chunks: a NaN maximum must not be skipped
            (3, 2048, 1000, lambda x: float("nan")),
        ],
        ids=["shifted", "nan"],
    )
    def test_import_revalidates_unitarity(self, rng, n, intervals, k, corrupt):
        p = propagate(random_trig_family(n, rng), intervals)
        payload = propagator_to_payload(p)
        payload["unitaries_re_im"][k][0] = corrupt(payload["unitaries_re_im"][k][0])
        with pytest.raises(ConsistencyError, match="unitarity"):
            propagator_from_payload(payload)

    def test_import_rejects_a_non_identity_start(self):
        p = propagate(constant_family(diag(-1.0, 1.0), 1.0), 8)
        payload = propagator_to_payload(p)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        payload["unitaries_re_im"][0] = np.stack([swap, 0 * swap], axis=-1).ravel().tolist()
        with pytest.raises(ConsistencyError, match="does not start at the identity"):
            propagator_from_payload(payload)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda grid: [t + 0.5 for t in grid],  # shifted: index_of(T) would read U at T - 0.5
            lambda grid: [grid[0], grid[2], grid[1], *grid[3:]],  # not increasing
            lambda grid: [grid[0], grid[1], grid[1], *grid[3:]],  # a repeated time
            lambda grid: [*grid[:-1], float("nan")],
            lambda grid: grid[:-1],  # one time short
            lambda grid: [[t] for t in grid],  # not 1-D
        ],
        ids=["shifted", "unordered", "repeated", "non-finite", "short", "two-d"],
    )
    def test_import_rejects_a_faulty_grid(self, rng, corrupt):
        payload = propagator_to_payload(propagate(random_trig_family(2, rng), 8))
        payload["grid"] = corrupt(payload["grid"])
        with pytest.raises(ConsistencyError, match="propagator grid"):
            propagator_from_payload(payload)
