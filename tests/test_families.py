from dataclasses import asdict, replace

import numpy as np
import pytest

from apsflow.errors import ConfigError, DimensionMismatchError, FamilyConstructionError
from apsflow.families import (
    NORM_SAMPLES,
    FamilySpec,
    capped_slope_profile,
    constant_family,
    counterexample_family,
    diagonal_path_family,
    endpoint_regularize,
    family_from_spec,
    kernel_projection,
    linear_family,
    matrix_from_pairs,
    matrix_to_pairs,
    quintic_profile,
    read_sample_series,
    sampled_family,
    swap_block_family,
    write_sample_series,
)
from apsflow.matrixcore import HermitianMatrix, eigh
from conftest import (
    diag_at,
    evolved_family,
    random_hermitian_entries,
    random_unitary,
    restricted,
    unitary_conjugated_family,
)


def diag(*vals):
    return HermitianMatrix(np.diag(np.asarray(vals, dtype=float)))


class TestProfiles:
    @pytest.mark.parametrize("profile", [quintic_profile(), capped_slope_profile()])
    def test_endpoint_values(self, profile):
        assert profile.value(0.0) == pytest.approx(0.0, abs=1e-14)
        assert profile.value(1.0) == pytest.approx(np.pi / 2.0, abs=1e-12)
        assert profile.slope(0.0) == pytest.approx(0.0, abs=1e-14)
        assert profile.slope(1.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("profile", [quintic_profile(), capped_slope_profile()])
    def test_slope_is_derivative(self, profile):
        h = 1e-6
        for t in np.linspace(2 * h, 1.0 - 2 * h, 23):
            fd = (profile.value(t + h) - profile.value(t - h)) / (2 * h)
            assert fd == pytest.approx(profile.slope(t), abs=1e-7)
            fd2 = (profile.slope(t + h) - profile.slope(t - h)) / (2 * h)
            assert fd2 == pytest.approx(profile.curvature(t), abs=1e-5)

    def test_quintic_max_slope(self):
        slopes = [quintic_profile().slope(t) for t in np.linspace(0, 1, 2001)]
        assert max(slopes) == pytest.approx(15.0 * np.pi / 16.0, rel=1e-6)

    def test_capped_profile_respects_bound(self):
        slopes = [capped_slope_profile().slope(t) for t in np.linspace(0, 1, 2001)]
        assert max(slopes) <= 2.0 + 1e-12


class TestBuilders:
    def test_constant_eval_and_derivative(self):
        f = constant_family(diag(-1.0, 1.0), 1.0)
        assert np.allclose(f.at(0.37).entries, np.diag([-1.0, 1.0]))
        assert np.allclose(f.derivative_at(0.9).entries, 0.0)

    def test_linear_midpoint(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        assert np.allclose(f.at(0.5).entries, np.diag([0.0]))
        assert np.allclose(f.at(1.0).entries, np.diag([0.5]))

    def test_linear_shifted_spectrum(self):
        # oracle: adding t*I shifts the known eigenvalues -1, 1 by t
        f = linear_family(
            HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])),
            HermitianMatrix(np.eye(2)),
            1.0,
        )
        for t in [0.0, 0.3, 1.0]:
            w = np.linalg.eigvalsh(f.at(t).entries)
            assert np.allclose(w, [t - 1.0, t + 1.0])

    def test_linear_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linear_family(diag(1.0), diag(1.0, 2.0), 1.0)

    def test_diagonal_path(self):
        f = diagonal_path_family([-1.0, 1.0], [1.0, 3.0], 2.0)
        assert np.allclose(f.at(1.0).entries, np.diag([0.0, 2.0]))

    def test_out_of_range_time(self):
        f = constant_family(diag(1.0), 1.0)
        with pytest.raises(ValueError):
            f.at(1.5)


class TestSwapBlock:
    def test_vanishes_at_endpoints(self):
        f = swap_block_family(-1.0, 1.0)
        assert np.allclose(f.at(0.0).entries, np.diag([-1.0, 1.0]))
        assert np.allclose(f.at(1.0).entries, np.diag([-1.0, 1.0]))

    def test_eigenvalues_never_vanish(self):
        # oracle: 2x2 characteristic polynomial gives +-sqrt(1 + slope^2)
        f = swap_block_family(-1.0, 1.0)
        prof = quintic_profile()
        for t in np.linspace(0.0, 1.0, 41):
            w = np.linalg.eigvalsh(f.at(t).entries)
            expected = np.sqrt(1.0 + prof.slope(t) ** 2)
            assert np.allclose(w, [-expected, expected], atol=1e-12)

    def test_offdiagonal_norm_bounded_by_max_slope(self):
        f = swap_block_family(2.0, 5.0)
        bound = max(quintic_profile().slope(t) for t in np.linspace(0, 1, 1001))
        for t in np.linspace(0.0, 1.0, 41):
            b = f.at(t).entries - np.diag([2.0, 5.0])
            assert np.linalg.norm(b, 2) <= bound + 1e-12

    def test_profile_injection(self):
        f = swap_block_family(-1.0, 1.0, profile=capped_slope_profile())
        for t in np.linspace(0.0, 1.0, 41):
            b = f.at(t).entries - np.diag([-1.0, 1.0])
            assert np.linalg.norm(b, 2) <= 2.0 + 1e-12


class TestCounterexample:
    def test_single_block_endpoint(self):
        f = counterexample_family([1.0])
        assert np.allclose(f.at(0.0).entries, np.diag([-1.0, 1.0]))

    def test_block_structure(self):
        f = counterexample_family([1.0, 2.0, 3.0])
        assert f.dim == 6
        for t in np.linspace(0.0, 1.0, 9):
            a = f.at(t).entries
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert np.all(a[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] == 0.0)

    def test_rejects_bad_lambdas(self):
        with pytest.raises(ConfigError):
            counterexample_family([])
        with pytest.raises(ConfigError):
            counterexample_family([1.0, -2.0])
        with pytest.raises(ConfigError):
            counterexample_family([2.0, 1.0])


class TestDerivativeValidation:
    def test_wrong_derivative_warns(self):
        from apsflow.families import _validated_family

        fam = _validated_family(
            1, 1.0, "bad-deriv", lambda t: diag_at(t, 1 + t), lambda t: diag_at(t, 5.0)
        )
        assert any("finite difference" in w for w in fam.construction_warnings)

    def test_correct_derivative_clean(self, rng):
        a = random_hermitian_entries(3, rng)
        b = random_hermitian_entries(3, rng)
        from apsflow.families import _validated_family

        def column(t):
            return np.asarray(t, dtype=float)[..., None, None]

        fam = _validated_family(
            3, 1.0, "ok", lambda t: a + np.sin(column(t)) * b, lambda t: np.cos(column(t)) * b
        )
        assert fam.construction_warnings == ()


class TestEndpointRegularize:
    def test_invertible_family_returned_unchanged(self):
        f = constant_family(diag(-1.0, 1.0), 1.0)
        assert endpoint_regularize(f) is f

    def test_zero_start_becomes_identity(self):
        f = linear_family(diag(0.0), diag(1.0), 1.0)
        b = endpoint_regularize(f, 0.2)
        assert np.allclose(b.at(0.0).entries, np.diag([1.0]))

    def test_agrees_in_the_bulk_exactly(self, rng):
        from apsflow.zoo import singular_endpoint_family

        f = singular_endpoint_family(3, rng)
        eps = 0.1
        b = endpoint_regularize(f, eps)
        for t in np.linspace(eps, 1.0 - eps, 7):
            assert np.array_equal(b.at(t).entries, f.at(t).entries)

    def test_endpoints_invertible(self, rng):
        from apsflow.zoo import singular_endpoint_family

        f = singular_endpoint_family(4, rng)
        assert min(np.abs(np.linalg.eigvalsh(f.at(0.0).entries))) < 1e-12
        b = endpoint_regularize(f, 0.1)
        for t in (0.0, 1.0):
            # invertible endpoints, with the former kernel pushed to magnitude ~1
            assert min(np.abs(np.linalg.eigvalsh(b.at(t).entries))) >= 1e-9
            former_kernel = kernel_projection(f.at(t))
            moved = b.at(t).entries @ former_kernel - former_kernel
            assert np.max(np.abs(moved)) <= 1e-9

    def test_kernel_projection(self):
        p = kernel_projection(diag(0.0, 2.0))
        assert np.allclose(p, np.diag([1.0, 0.0]))

    def test_rejects_bad_epsilon(self):
        f = constant_family(diag(0.0), 1.0)
        with pytest.raises(ConfigError):
            endpoint_regularize(f, 0.7)


class TestSampledFamily:
    def test_interpolates_linearly(self):
        f = sampled_family([0.0, 1.0], [np.diag([0.0]), np.diag([1.0])])
        assert np.allclose(f.at(0.5).entries, np.diag([0.5]))

    def test_equal_endpoints_constant(self):
        f = sampled_family([0.0, 1.0], [np.diag([2.0]), np.diag([2.0])])
        for t in np.linspace(0, 1, 5):
            assert np.allclose(f.at(t).entries, np.diag([2.0]))

    def test_exact_on_linear_data(self, rng):
        a = random_hermitian_entries(3, rng)
        b = random_hermitian_entries(3, rng)
        times = [0.0, 0.4, 1.0]
        f = sampled_family(times, [a + t * b for t in times])
        for t in np.linspace(0.0, 1.0, 11):
            assert np.allclose(f.at(t).entries, a + t * b, atol=1e-12)

    def test_flags_piecewise_smoothness(self):
        f = sampled_family([0.0, 1.0], [np.diag([0.0]), np.diag([1.0])])
        assert f.smoothness == "piecewise"
        assert any("piecewise" in w for w in f.construction_warnings)

    def test_rejects_nonmonotone_times(self):
        with pytest.raises(ConfigError):
            sampled_family([0.0, 0.5, 0.5], [np.diag([0.0])] * 3)

    def test_rejects_non_hermitian_sample(self):
        with pytest.raises(ValueError, match="Hermitian"):
            sampled_family([0.0, 1.0], [np.diag([0.0]), np.array([[0.0, 1.0], [0.0, 0.0]])])


class TestConjugation:
    def test_constant_unitary_preserves_spectrum(self, rng):
        f = linear_family(diag(-0.5, 0.5), diag(1.0, 1.0), 1.0)
        u = random_unitary(2, rng)
        g = unitary_conjugated_family(f, np.zeros((2, 2)), u)
        for t in np.linspace(0, 1, 7):
            assert np.allclose(
                np.linalg.eigvalsh(g.at(t).entries), np.linalg.eigvalsh(f.at(t).entries)
            )

    @pytest.mark.parametrize("oracle", ["evolved", "conjugated"])
    def test_oracle_derivative_matches_a_central_difference(self, rng, oracle):
        from apsflow.evolution import propagate
        from apsflow.zoo import random_trig_family

        f = random_trig_family(3, rng)
        if oracle == "evolved":
            g = evolved_family(f, propagate(f, 64))
        else:
            g = unitary_conjugated_family(
                f, random_hermitian_entries(3, rng, scale=4.0), random_unitary(3, rng)
            )
        # inside propagator steps, clear of the grid times k / 64 by far more than h
        ts = (np.array([3.0, 17.0, 40.0, 63.0]) + 0.37) / 64.0
        h = 1e-6
        central = (g.at_many(ts + h) - g.at_many(ts - h)) / (2.0 * h)
        assert np.max(np.abs(central - g.derivative_at_many(ts))) <= 1e-6


class TestRestriction:
    def test_restricted_matches_shifted(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        g = restricted(f, 0.25, 0.75)
        assert g.horizon == pytest.approx(0.5)
        assert np.allclose(g.at(0.0).entries, f.at(0.25).entries)
        assert np.allclose(g.at(0.5).entries, f.at(0.75).entries)

    def test_time_reversed(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        r = f.time_reversed()
        assert np.allclose(r.at(0.0).entries, f.at(1.0).entries)
        assert np.allclose(r.derivative_at(0.3).entries, -f.derivative_at(0.7).entries)


class TestNormBound:
    def test_cached_value_is_the_sampled_maximum(self, rng):
        f = linear_family(
            HermitianMatrix(random_hermitian_entries(3, rng)),
            HermitianMatrix(random_hermitian_entries(3, rng)),
            1.0,
        )
        ts = np.linspace(0.0, f.horizon, NORM_SAMPLES)
        expected = float(np.max(np.abs(np.linalg.eigvalsh(f.at_many(ts)))))
        assert f.norm_bound() == expected
        assert f.norm_bound() == expected

    def test_replaced_copy_computes_its_own(self):
        f = linear_family(diag(-0.5, 0.25), diag(1.0, 2.0), 1.0)
        bound = f.norm_bound()
        ev = f.eval_fn
        g = replace(f, eval_fn=lambda t: 3.0 * ev(t))
        assert g.norm_bound() == pytest.approx(3.0 * bound)
        assert f.norm_bound() == bound

    def test_invisible_to_equality_and_asdict(self):
        f = linear_family(diag(-0.5, 0.25), diag(1.0, 2.0), 1.0)
        fresh = replace(f)
        before = asdict(f)
        f.norm_bound()
        assert f == fresh
        assert asdict(f).keys() == before.keys()


class TestEndpointSpectra:
    def test_one_decomposition_per_end_per_instance(self):
        f = linear_family(diag(-0.5, 0.25), diag(1.0, 2.0), 1.0)
        first = f.endpoint_spectra
        assert f.endpoint_spectra is first
        for s, t in zip(first, (0.0, f.horizon)):
            fresh = eigh(f.at(t))
            assert s.eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
            assert s.eigenvectors.tobytes() == fresh.eigenvectors.tobytes()

    def test_replaced_copy_computes_its_own(self):
        f = linear_family(diag(-0.5, 0.25), diag(1.0, 2.0), 1.0)
        ends = f.endpoint_spectra
        ev = f.eval_fn
        g = replace(f, eval_fn=lambda t: 3.0 * ev(t))
        assert np.allclose(g.endpoint_spectra[1].eigenvalues, [1.5, 6.75])
        assert f.endpoint_spectra is ends
        assert np.allclose(ends[1].eigenvalues, [0.5, 2.25])

    def test_invisible_to_equality_and_asdict(self):
        f = linear_family(diag(-0.5, 0.25), diag(1.0, 2.0), 1.0)
        fresh = replace(f)
        before = asdict(f)
        f.endpoint_spectra
        f._computed_once(("key", 1.0), lambda: 1)
        assert f == fresh
        assert asdict(f).keys() == before.keys()
        assert "endpoint_spectra" not in fresh.__dict__ and "_memo" not in fresh.__dict__

    def test_shared_arrays_are_read_only(self):
        f = linear_family(diag(-0.5, 0.25), diag(1.0, 2.0), 1.0)
        for s in f.endpoint_spectra:
            for a in (s.eigenvalues, s.eigenvectors):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 7.0
        assert np.array_equal(f.endpoint_spectra[0].eigenvalues, [-0.5, 0.25])

    def test_regularization_reads_the_cached_pair(self):
        f = constant_family(diag(0.0, -1.0), 1.0)
        reg = endpoint_regularize(f)
        assert reg is not f
        assert np.array_equal(kernel_projection(f.endpoint_spectra[0]), np.diag([1.0, 0.0]))
        assert np.array_equal(kernel_projection(f.at(0.0)), kernel_projection(f.endpoint_spectra[0]))


class TestComputedOnce:
    def test_keys_keep_their_own_values(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)
        calls = []

        def compute(value):
            calls.append(value)
            return [value]

        a = f._computed_once(("what", 1e-9), lambda: compute(1))
        b = f._computed_once(("what", 1e-2), lambda: compute(2))
        assert f._computed_once(("what", 1e-9), lambda: compute(3)) is a
        assert f._computed_once(("what", 1e-2), lambda: compute(4)) is b
        assert calls == [1, 2]

    def test_an_exception_is_not_kept(self):
        f = linear_family(diag(-0.5), diag(1.0), 1.0)

        def fail():
            raise ConfigError("not kept")

        with pytest.raises(ConfigError):
            f._computed_once(("what",), fail)
        assert f._computed_once(("what",), lambda: 5) == 5


class TestSpecsAndSerialization:
    def test_roundtrip_pairs(self, rng):
        a = random_hermitian_entries(3, rng)
        assert np.allclose(matrix_from_pairs(matrix_to_pairs(a)), a)

    def test_family_from_spec_kinds(self):
        specs = [
            FamilySpec("constant", {"matrix_diagonal": [-1.0, 1.0], "horizon": 2.0}),
            FamilySpec("linear", {"a0_diagonal": [-0.5], "b_diagonal": [1.0]}),
            FamilySpec("diagonal-path", {"start": [-1.0], "end": [1.0]}),
            FamilySpec("swap-block", {"lambda1": -1.0, "lambda2": 1.0}),
            FamilySpec("counterexample", {"m": 2}),
        ]
        dims = [2, 1, 1, 2, 4]
        for spec, dim in zip(specs, dims):
            fam = family_from_spec(spec)
            assert fam.dim == dim

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FamilySpec("mystery", {})

    def test_missing_parameter(self):
        with pytest.raises(ConfigError, match="lambda1"):
            family_from_spec(FamilySpec("swap-block", {"lambda2": 1.0}))

    @pytest.mark.parametrize("ext", ["json", "csv"])
    def test_sample_series_roundtrip(self, tmp_path, rng, ext):
        times = [0.0, 0.5, 1.0]
        mats = [random_hermitian_entries(2, rng) for _ in times]
        path = tmp_path / f"series.{ext}"
        write_sample_series(path, times, mats)
        rt_times, rt_mats = read_sample_series(path)
        assert np.allclose(rt_times, times)
        for a, b in zip(mats, rt_mats):
            assert np.allclose(a, b)
        fam = family_from_spec(FamilySpec("custom-samples", {"path": str(path)}))
        assert fam.dim == 2

    def test_csv_blank_lines_are_skipped(self, tmp_path, rng):
        times = [0.0, 0.5, 1.0]
        mats = [random_hermitian_entries(2, rng) for _ in times]
        path = tmp_path / "series.csv"
        write_sample_series(path, times, mats)
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        path.write_text(lines[0] + lines[1] + "\n" + "".join(lines[2:]) + "\n")
        fam = family_from_spec(FamilySpec("custom-samples", {"path": str(path)}))
        path.write_text(text)
        clean = family_from_spec(FamilySpec("custom-samples", {"path": str(path)}))
        assert np.array_equal(fam.at_many(times), clean.at_many(times))

    def test_csv_short_row_names_file_and_line(self, tmp_path, rng):
        path = tmp_path / "series.csv"
        write_sample_series(path, [0.0, 1.0], [random_hermitian_entries(2, rng) for _ in range(2)])
        lines = path.read_text().splitlines()
        lines[2] = ",".join(lines[2].split(",")[:-2])  # drop the last (re, im) pair
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError) as exc:
            family_from_spec(FamilySpec("custom-samples", {"path": str(path)}))
        assert str(exc.value) == f"sample file {path} line 3: 7 columns, the header has 9"


def _batched_cases():
    from apsflow.evolution import propagate
    from apsflow.zoo import random_zoo, singular_endpoint_family

    zoo = random_zoo(4, 0, max_dim=8)
    samples = family_from_spec(
        FamilySpec(
            "custom-samples",
            {
                "times": [0.0, 0.3, 1.0],
                "matrices": [
                    matrix_to_pairs([[-1.0, 0.5j], [-0.5j, 1.0]]),
                    matrix_to_pairs([[0.2, 1.0], [1.0, -0.4]]),
                    matrix_to_pairs([[1.0, 0.0], [0.0, -2.0]]),
                ],
            },
        )
    )
    rng = np.random.default_rng(7)
    singular = singular_endpoint_family(3, rng)
    u0 = random_unitary(4, rng)
    k = random_hermitian_entries(4, rng)
    return {
        "zoo-n2": zoo[0],
        "zoo-n8": zoo[2],
        "swap-block": swap_block_family(-1.0, 1.0),
        "custom-samples": samples,
        "evolved": evolved_family(zoo[1], propagate(zoo[1], 64)),
        "constant": constant_family(diag(-1.0, 0.5), 2.0),
        "linear": linear_family(diag(-0.5, 0.25), diag(1.0, -2.0), 1.5),
        "diagonal-path": diagonal_path_family([-2.0, -1.0, 1.0], [1.0, 2.0, -3.0], 1.0),
        "counterexample": counterexample_family([1.0, 2.0, 3.0], profile=capped_slope_profile()),
        "singular-endpoints": singular,
        "endpoint-regularized": endpoint_regularize(singular),
        "conjugated": unitary_conjugated_family(zoo[1], k, u0),
        "restricted": restricted(zoo[3], 0.2, 0.7),
        "time-reversed": endpoint_regularize(singular).time_reversed(),
        "evolved-restricted": restricted(evolved_family(zoo[1], propagate(zoo[1], 64)), 0.3, 0.9),
    }


BATCHED_CASES = (
    "zoo-n2",
    "zoo-n8",
    "swap-block",
    "custom-samples",
    "evolved",
    "constant",
    "linear",
    "diagonal-path",
    "counterexample",
    "singular-endpoints",
    "endpoint-regularized",
    "conjugated",
    "restricted",
    "time-reversed",
    "evolved-restricted",
)


class TestBatchedEvaluation:
    def test_cases_cover_every_builder(self):
        assert set(_batched_cases()) == set(BATCHED_CASES)

    @pytest.mark.parametrize("name", BATCHED_CASES)
    def test_at_many_equals_stacked_at_bitwise(self, name):
        fam = _batched_cases()[name]
        # uniform samples, an off-grid time and a time rounding past T
        ts = np.concatenate([np.linspace(0.0, fam.horizon, 37), [0.3141 * fam.horizon]])
        ts = np.append(ts, fam.horizon + 5e-13)
        stacked = np.stack([fam.at(t).entries for t in ts])
        assert np.array_equal(fam.at_many(ts), stacked)
        assert not fam.at_many(ts).flags.writeable
        # the scalar form of the contract: one float gives one matrix
        assert np.shape(fam.eval_fn(0.5 * fam.horizon)) == (fam.dim, fam.dim)
        stacked_d = np.stack([fam.derivative_at(t).entries for t in ts])
        assert np.array_equal(fam.derivative_at_many(ts), stacked_d)
        assert np.shape(fam.derivative_fn(0.5 * fam.horizon)) == (fam.dim, fam.dim)

    def test_at_many_rejects_times_outside_horizon(self):
        fam = swap_block_family(-1.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            fam.at_many([0.5, 1.5])
        # the first time out of range is named, as at() names it
        with pytest.raises(ValueError, match=r"^time -0\.25 outside \[0, 1\.0\]$"):
            fam.at_many([0.5, -0.25, 1.5])

    def test_scalar_only_evaluator_is_a_typed_error(self):
        import math

        from apsflow.families import OperatorFamily, _validated_family

        def scalar_only(t):
            return np.array([[math.sin(t)]], dtype=complex)

        def scalar_only_slope(t):
            return np.array([[math.cos(t)]], dtype=complex)

        with pytest.raises(FamilyConstructionError, match="1-D array of times"):
            _validated_family(1, 1.0, "scalar-only", scalar_only, scalar_only_slope)
        with pytest.raises(FamilyConstructionError, match=r"shape \(1,\) for times of shape \(9,\)"):
            _validated_family(
                1, 1.0, "scalar-only", lambda t: np.diag([1.0 + t]), lambda t: np.diag([1.0])
            )
        fam = OperatorFamily(
            dim=1,
            horizon=1.0,
            label="scalar-only",
            eval_fn=scalar_only,
            derivative_fn=scalar_only_slope,
        )
        assert fam.at(0.5).dim == 1
        with pytest.raises(DimensionMismatchError, match="1-D array of times"):
            fam.at_many([0.25, 0.5])

    def test_non_hermitian_message_matches_at(self):
        from apsflow.families import OperatorFamily

        def skewed(t):
            out = np.zeros(np.shape(t) + (2, 2), dtype=complex)
            out[..., 0, 1] = 1.0 + np.asarray(t)
            return out

        def skewed_slope(t):
            out = np.zeros(np.shape(t) + (2, 2), dtype=complex)
            out[..., 0, 1] = 1.0
            return out

        fam = OperatorFamily(
            dim=2, horizon=1.0, label="skewed", eval_fn=skewed, derivative_fn=skewed_slope
        )
        with pytest.raises(ValueError) as single:
            fam.at(0.5)
        with pytest.raises(ValueError) as batched:
            fam.at_many([0.5])
        assert "not Hermitian" in str(single.value)
        assert str(batched.value) == str(single.value)
