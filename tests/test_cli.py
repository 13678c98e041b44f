import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from apsflow import apsindex, cli, evolution, families, matrixcore, spectralflow
from apsflow.cli import (
    ExperimentConfig,
    ToleranceSet,
    execute_config,
    load_config,
    main,
    parse_config,
    run_suite,
)
from apsflow.errors import ConfigError
from apsflow.families import FamilySpec, OperatorFamily, family_from_spec


def write_config(path, **overrides):
    raw = {
        "family": {
            "kind": "linear",
            "parameters": {"a0_diagonal": [-0.5], "b_diagonal": [1.0]},
        },
        "propagator": {"steps": 128},
        "checks": ["flowind"],
        "output": {"path": str(path.parent / "out"), "formats": ["json"]},
    }
    raw.update(overrides)
    path.write_text(json.dumps(raw), encoding="utf-8")
    return raw


def _family(kind, **parameters):
    return {"kind": kind, "parameters": parameters}


# top-level config overrides, each with a fragment its "config error:" line must name
MALFORMED_CONFIGS = {
    "steps-word": ({"propagator": {"steps": "many"}}, "propagator.steps must be an integer"),
    "grid-word": ({"grid": "fine"}, "config.grid must be an integer"),
    "steps-null": ({"propagator": {"steps": None}}, "propagator.steps must be an integer"),
    "steps-fraction": ({"propagator": {"steps": 1.7}}, "propagator.steps must be an integer"),
    "tolerance-word": ({"tolerances": {"tau_0": "small"}}, "tau_0 must be a number"),
    # json.dumps writes these as Infinity and NaN, which json.load reads back
    "tolerance-infinity": (
        {"tolerances": {"tau_0": float("inf")}},
        "config.tolerances.tau_0 must be finite, got inf",
    ),
    "tolerance-nan": (
        {"tolerances": {"gamma_min": float("nan")}},
        "config.tolerances.gamma_min must be finite, got nan",
    ),
    "tolerance-past-the-float-range": (
        {"tolerances": {"sigma_cut": 10**400}},
        "config.tolerances.sigma_cut must be finite",
    ),
    "oracle-tolerance-infinity": (
        {"propagator": {"steps": 128, "oracle_tolerance": float("inf")}},
        "config.propagator.oracle_tolerance must be finite, got inf",
    ),
    "oracle-tolerance-nan": (
        {"propagator": {"steps": 128, "oracle_tolerance": float("nan")}},
        "config.propagator.oracle_tolerance must be finite, got nan",
    ),
    "formats-string": (
        {"output": {"path": "out", "formats": "json"}},
        "formats must be a list",
    ),
    "non-hermitian-matrix": (
        {"family": _family("constant", matrix=[[[0.0, 0.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]])},
        "not Hermitian",
    ),
    "diagonal-word": ({"family": _family("constant", matrix_diagonal="abc")}, "'abc'"),
    "parameters-list": (
        {"family": {"kind": "constant", "parameters": [1, 2]}},
        "parameters must be an object",
    ),
    "samples-path-missing": (
        {"family": _family("custom-samples", path="no-such-samples.csv")},
        "no-such-samples.csv",
    ),
    "horizon-infinity": (
        {"family": _family("linear", a0_diagonal=[-0.5], b_diagonal=[1.0], horizon=float("inf"))},
        "horizon must be positive and finite, got inf",
    ),
    "horizon-nan": (
        {"family": _family("linear", a0_diagonal=[-0.5], b_diagonal=[1.0], horizon=float("nan"))},
        "horizon must be positive and finite, got nan",
    ),
}


SHIPPED_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "scalar-crossing.json")
# command lines whose numbers lie outside the flag's range, with the flag named
OUT_OF_RANGE_FLAGS = {
    "run-steps-negative": (["run", "--config", SHIPPED_CONFIG, "--steps", "-5"], "--steps"),
    "run-steps-zero": (["run", "--config", SHIPPED_CONFIG, "--steps", "0"], "--steps"),
    "run-grid-2": (["run", "--config", SHIPPED_CONFIG, "--grid", "2"], "--grid"),
    "run-grid-zero": (["run", "--config", SHIPPED_CONFIG, "--grid", "0"], "--grid"),
    "suite-grid-2": (["suite", "theorems", "--grid", "2"], "--grid"),
    "suite-steps-zero": (["suite", "convergence", "--steps", "0"], "--steps"),
    "suite-families-negative": (["suite", "random", "--families", "-1"], "--families"),
    "suite-seed-negative": (["suite", "random", "--seed", "-1"], "--seed"),
    "suite-max-n-zero": (["suite", "random", "--max-n", "0", "--families", "3"], "--max-n"),
    "suite-max-blocks-negative": (["suite", "counterexample", "--max-blocks", "-1"], "--max-blocks"),
    "export-samples-zero": (
        ["export", "eigenflow", "--config", SHIPPED_CONFIG, "--samples", "0"],
        "--samples",
    ),
}


class TestConfigParsing:
    def test_defaults_filled(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(path)
        config = load_config(str(path))
        assert config.steps == 128
        assert config.scheme == "midpoint-exponential"
        assert config.tolerances == ToleranceSet()
        assert config.checks == ("flowind",)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tau_0 must be positive"):
            parse_config(
                {
                    "family": {"kind": "constant", "parameters": {"matrix_diagonal": [1.0]}},
                    "tolerances": {"tau_0": -1e-9},
                    "checks": ["flowind"],
                }
            )

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError, match="config.checks entry"):
            parse_config(
                {
                    "family": {"kind": "constant", "parameters": {"matrix_diagonal": [1.0]}},
                    "checks": ["mystery"],
                }
            )

    def test_empty_checks_rejected(self):
        with pytest.raises(ConfigError, match="nonempty"):
            parse_config(
                {
                    "family": {"kind": "constant", "parameters": {"matrix_diagonal": [1.0]}},
                    "checks": [],
                }
            )

    def test_unconstructible_family_rejected(self):
        with pytest.raises(ConfigError, match="lambda1"):
            parse_config(
                {
                    "family": {"kind": "swap-block", "parameters": {}},
                    "checks": ["flowind"],
                }
            )

    def test_unknown_profile_named(self):
        family = _family("swap-block", lambda1=-1.0, lambda2=1.0, profile="cubic")
        with pytest.raises(ConfigError) as info:
            parse_config({"family": family, "checks": ["flowind"]})
        assert str(info.value) == (
            "unknown profile 'cubic'; expected one of ('quintic', 'capped-slope')"
        )

    def test_growth_check_needs_counterexample_family(self):
        with pytest.raises(ConfigError, match="counterexample-growth"):
            parse_config(
                {
                    "family": {"kind": "constant", "parameters": {"matrix_diagonal": [1.0]}},
                    "checks": ["counterexample-growth"],
                }
            )

    def test_omitted_keys_take_the_dataclass_defaults(self):
        family = {"kind": "constant", "parameters": {"matrix_diagonal": [1.0]}}
        config = parse_config({"family": family, "checks": ["flowind"]})
        spec = FamilySpec("constant", {"matrix_diagonal": [1.0]})
        assert config == ExperimentConfig(spec, checks=("flowind",))

    def test_unknown_tolerance_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(
                {
                    "family": {"kind": "constant", "parameters": {"matrix_diagonal": [1.0]}},
                    "tolerances": {"tau_fancy": 1.0},
                    "checks": ["flowind"],
                }
            )


class TestRunCommand:
    def test_passing_run_exit_zero(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(path)
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is True
        assert report["results"][0]["sfl"] == 1
        assert report["results"][0]["endpoint_pair_index"] == 1
        assert "_timings" not in report
        assert report["schema_version"] == 2
        assert report["artifact_version"]
        assert report["seed"] == 0
        assert len(report["results"]) == len(report["config"]["checks"])

    def test_execute_config_returns_only_the_report(self, capsys):
        config = parse_config({"family": SCALAR_CROSSING, "checks": ["flowind"]})
        report = execute_config(config)
        keys = {"schema_version", "artifact_version", "seed", "config", "results", "passed"}
        assert set(report) == keys  # no wall-clock timings
        assert "  flowind: " in capsys.readouterr().err

    def test_malformed_config_exit_two_no_report(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(path, tolerances={"gamma_min": -1.0})
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 2
        assert not (tmp_path / "out" / "report.json").exists()

    def test_unparseable_json_exit_two(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 2
        assert "line" in result.output

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_malformed_value_is_a_config_error(self, tmp_path, case):
        path = tmp_path / "config.json"
        overrides, fragment = MALFORMED_CONFIGS[case]
        write_config(path, **overrides)
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("config error:"), result.stderr
        assert fragment in result.stderr
        assert "Traceback" not in result.output

    def test_typed_error_in_a_check_is_a_failed_entry(self, tmp_path):
        # ||A|| * T = 80 exceeds the default boundary-value grid of 64 intervals
        path = tmp_path / "config.json"
        write_config(
            path,
            family=_family("constant", matrix_diagonal=[-80.0, 80.0]),
            checks=["riemannian-main"],
        )
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 1, result.output
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        entry = report["results"][0]
        assert entry["passed"] is False
        assert entry["error"].startswith("StiffnessError:")
        assert "grid of 64 intervals" in entry["error"]

    def test_shooting_skipped_above_the_norm_cap(self, tmp_path):
        # ||A|| * T = 20 lies between RIEMANNIAN_NORM_CAP and the default grid of 64
        path = tmp_path / "config.json"
        write_config(
            path,
            family=_family("constant", matrix_diagonal=[-20.0, 20.0]),
            checks=["riemannian-main"],
        )
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 0, result.output
        entry = json.loads((tmp_path / "out" / "report.json").read_text())["results"][0]
        assert entry["passed"] is True
        assert "shooting_route" in entry and entry["shooting_route"] is None
        assert "shooting_agrees" in entry and entry["shooting_agrees"] is None

    @pytest.mark.parametrize(
        "payload",
        [
            '{"matrices": []}',
            '{"times": [0.0, 1.0]}',
            "",
            "t,re_0_0,im_0_0\n0.0,-0.5,0.0\n1.0,0.5\n",  # a row one column short
        ],
    )
    def test_faulty_sample_file_is_blamed(self, tmp_path, payload):
        samples = tmp_path / ("samples.json" if payload.startswith("{") else "samples.csv")
        samples.write_text(payload, encoding="utf-8")
        path = tmp_path / "config.json"
        write_config(path, family=_family("custom-samples", path=str(samples)))
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"config error: sample file {samples}"), result.stderr
        assert "missing parameter" not in result.stderr
        assert "Traceback" not in result.output

    def test_csv_sample_file_ending_in_a_blank_line_runs(self, tmp_path):
        from apsflow.families import write_sample_series

        samples = tmp_path / "samples.csv"
        write_sample_series(samples, [0.0, 1.0], [np.diag([-0.5]), np.diag([0.5])])
        samples.write_text(samples.read_text() + "\n", encoding="utf-8")
        path = tmp_path / "config.json"
        write_config(path, family=_family("custom-samples", path=str(samples)))
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 0, result.output

    def test_check_failure_exit_one_report_written(self, tmp_path):
        # a counterexample oracle comparison at 8 coarse midpoint steps
        # cannot reach the 1e-6 tolerance, so the check fails honestly
        path = tmp_path / "config.json"
        write_config(
            path,
            family={"kind": "counterexample", "parameters": {"m": 1}},
            propagator={"steps": 8, "scheme": "midpoint-exponential"},
            checks=["counterexample-growth"],
        )
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False
        entry = report["results"][0]
        assert entry["closed_form_defect"] > entry["oracle_tolerance"]

    def test_reports_byte_identical(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(path, checks=["flowind", "lorentzian-main"])
        runner = CliRunner()
        runner.invoke(main, ["run", "--config", str(path), "--seed", "3"])
        first = (tmp_path / "out" / "report.json").read_bytes()
        runner.invoke(main, ["run", "--config", str(path), "--seed", "3"])
        second = (tmp_path / "out" / "report.json").read_bytes()
        assert first == second

    def test_csv_traces_written(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(
            path,
            checks=["flowind", "lorentzian-main", "riemannian-main"],
            output={"path": str(tmp_path / "out"), "formats": ["json", "csv"]},
        )
        runner = CliRunner()
        result = runner.invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 0
        for name in ("eigenflow.csv", "crossings.csv", "unitarity_drift.csv", "singular_values.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_strict_rejects_flagged_family(self, tmp_path):
        # sampled families always carry a piecewise-smoothness flag, which
        # strict mode promotes to a construction error
        path = tmp_path / "config.json"
        write_config(
            path,
            family={
                "kind": "custom-samples",
                "parameters": {
                    "times": [0.0, 1.0],
                    "matrices": [[[[0.0, 0.0]]], [[[1.0, 0.0]]]],
                },
            },
        )
        runner = CliRunner()
        relaxed = runner.invoke(main, ["run", "--config", str(path)])
        assert relaxed.exit_code == 0, relaxed.output
        strict = runner.invoke(main, ["run", "--config", str(path), "--strict"])
        assert strict.exit_code == 2
        assert "strict" in strict.output

    def test_tolerances_echoed_in_report(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(path, tolerances={"gamma_min": 2e-6})
        runner = CliRunner()
        runner.invoke(main, ["run", "--config", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["tolerances"]["gamma_min"] == 2e-6
        assert report["results"][0]["tolerances"]["gamma_min"] == 2e-6


SCALAR_CROSSING = {"kind": "linear", "parameters": {"a0_diagonal": [-0.5], "b_diagonal": [1.0]}}
COUNTEREXAMPLE = {"kind": "counterexample", "parameters": {"m": 1}}
# the function that applies each threshold, and the keyword it takes it by
TOLERANCE_APPLIERS = {
    "tau_0": ("_count_window", "tau_0"),
    "tau_rank": ("relative_index", "tau_rank"),
    "gamma_min": ("build_flow_partition", "gamma_min"),
    "tau_angle": ("lorentzian_index_subspace", "tau_angle"),
    "sigma_cut": ("_projection_pair_indices", "sigma_cut"),
    "shooting_angle_tol": ("riemannian_kernel_shooting", "angle_tol"),
}
TOLERANCE_CHECKS = [
    ("tau_0", "flowind"),
    ("tau_0", "lorentzian-main"),
    ("tau_0", "riemannian-main"),
    ("tau_0", "counterexample-growth"),
    ("tau_rank", "flowind"),
    ("gamma_min", "flowind"),
    ("gamma_min", "lorentzian-main"),
    ("gamma_min", "riemannian-main"),
    ("gamma_min", "counterexample-growth"),
    ("tau_angle", "lorentzian-main"),
    ("tau_angle", "counterexample-growth"),
    ("sigma_cut", "lorentzian-main"),
    ("sigma_cut", "counterexample-growth"),
    ("shooting_angle_tol", "riemannian-main"),
]


def spy_keyword(monkeypatch, name, keyword):
    """Record ``keyword`` of every call to the apsflow function ``name``.

    The spy replaces every module binding of the function, so calls made
    inside the package are seen too.  A defaulted keyword records ``None``.
    """
    modules = (apsindex, cli, evolution, matrixcore, spectralflow)
    original = next(getattr(m, name) for m in modules if hasattr(m, name))
    signature = inspect.signature(original)
    seen = []

    def wrapper(*args, **kwargs):
        seen.append(signature.bind(*args, **kwargs).arguments.get(keyword))
        return original(*args, **kwargs)

    for m in modules:
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, wrapper)
    return seen


class TestTolerancePlumbing:
    @pytest.mark.parametrize("field,check", TOLERANCE_CHECKS)
    def test_config_tolerance_reaches_its_threshold(self, monkeypatch, field, check):
        value = 2.0 * getattr(ToleranceSet(), field)
        seen = spy_keyword(monkeypatch, *TOLERANCE_APPLIERS[field])
        family = COUNTEREXAMPLE if check == "counterexample-growth" else SCALAR_CROSSING
        config = parse_config(
            {
                "family": family,
                "propagator": {"steps": 128},
                "tolerances": {field: value},
                "checks": [check],
            }
        )
        entry = execute_config(config)["results"][0]
        assert "error" not in entry
        assert seen and all(v == value for v in seen), seen
        assert entry["tolerances"][field] == value

    def test_construction_warning_in_every_record(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(
            path,
            family={
                "kind": "custom-samples",
                "parameters": {
                    "times": [0.0, 1.0],
                    "matrices": [[[[-0.5, 0.0]]], [[[0.5, 0.0]]]],
                },
            },
            checks=["flowind", "lorentzian-main", "riemannian-main"],
        )
        result = CliRunner().invoke(main, ["run", "--config", str(path)])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for entry in report["results"]:
            assert any("piecewise" in w for w in entry["warnings"]), entry["check"]


def count_calls(monkeypatch, module, name):
    """Count calls to ``module.name``, also through its imports into ``cli``."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for m in (module, cli):
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, wrapper)
    return calls


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def count_endpoint_eighs(monkeypatch):
    """Count the ``eigh`` calls on ``A(0)`` or ``A(T)`` of each family object.

    Each endpoint matrix ``OperatorFamily.at`` returns is remembered with
    its family; an ``eigh`` of that very matrix object counts for the
    family.  Returns ``{id(family): [family, count]}``, filled as calls come.
    """
    at, eigh = OperatorFamily.at, matrixcore.eigh
    endpoint_of = {}
    counts = {}

    def spy_at(self, t):
        h = at(self, t)
        if t == 0.0 or t == self.horizon:
            endpoint_of[id(h)] = (h, self)
        return h

    def spy_eigh(h):
        matrix, family = endpoint_of.get(id(h), (None, None))
        if matrix is h:
            counts.setdefault(id(family), [family, 0])[1] += 1
        return eigh(h)

    monkeypatch.setattr(OperatorFamily, "at", spy_at)
    for m in (matrixcore, families, apsindex, spectralflow, evolution):
        if getattr(m, "eigh", None) is eigh:
            monkeypatch.setattr(m, "eigh", spy_eigh)
    return counts


def count_made(monkeypatch, module, function, result_type):
    """The ``(family, tolerances)`` asked of ``module.function``, and the results built.

    ``asked`` holds one key per distinct family object and keyword set;
    ``built`` one entry per ``result_type`` instance ``module`` constructs.
    """
    original, make = getattr(module, function), getattr(module, result_type)
    signature = inspect.signature(original)
    asked, built, alive = set(), [], []

    def spy(family, *args, **kwargs):
        alive.append(family)  # keeps ids unique while the test runs
        bound = signature.bind(family, *args, **kwargs)
        bound.apply_defaults()
        asked.add((id(family), *list(bound.arguments.values())[1:]))
        return original(family, *args, **kwargs)

    def counting(*args, **kwargs):
        built.append(1)
        return make(*args, **kwargs)

    monkeypatch.setattr(module, function, spy)
    monkeypatch.setattr(module, result_type, counting)
    return asked, built


class TestWorkDoneOnce:
    def config(self, check):
        return parse_config(
            {
                "family": SCALAR_CROSSING,
                "propagator": {"steps": 128},
                "checks": [check],
                "output": {"formats": ["json", "csv"]},
            }
        )

    @pytest.mark.parametrize("check,expected", [("lorentzian-main", 0), ("flowind", 1)])
    def test_crossing_log_built_only_where_written(self, monkeypatch, tmp_path, check, expected):
        calls = count_calls(monkeypatch, spectralflow, "_crossing_log")
        entry = execute_config(self.config(check), outdir=tmp_path)["results"][0]
        assert entry["passed"]
        assert len(calls) == expected

    def test_propagator_defect_computed_once(self, monkeypatch, tmp_path):
        # one chunk of 129 scalar products: one call, none from the drift CSV
        calls = count_calls(monkeypatch, evolution, "_defects")
        entry = execute_config(self.config("lorentzian-main"), outdir=tmp_path)["results"][0]
        assert entry["propagator"]["unitarity_defect"] <= evolution.UNITARITY_ATOL
        assert (tmp_path / "unitarity_drift.csv").exists()
        assert len(calls) == 1
        prop = evolution.propagate(family_from_spec(FamilySpec(**SCALAR_CROSSING)), 16)
        assert prop.unitarity_defect() == prop.unitarity_defect()
        assert len(calls) == 2

    def test_drift_csv_agrees_with_the_report(self, tmp_path):
        config = parse_config(
            {
                "family": _family("swap-block", lambda1=-1.0, lambda2=1.0),
                "checks": ["lorentzian-main"],
                "output": {"formats": ["json", "csv"]},
            }
        )
        entry = execute_config(config, outdir=tmp_path)["results"][0]
        lines = (tmp_path / "unitarity_drift.csv").read_text(encoding="utf-8").splitlines()
        drift = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(drift) == config.steps + 1
        assert max(drift) == entry["propagator"]["unitarity_defect"]

    def test_one_pass_reads_every_checkpoint(self, monkeypatch):
        times = spy_keyword(monkeypatch, "_projection_pair_indices", "times")
        entry = execute_config(self.config("lorentzian-main"))["results"][0]
        assert len(entry["checkpoints"]) == 8
        # one call for all 8 times; the projection route is its report at T
        assert [len(t) for t in times] == [8]
        assert entry["projection_route"]["diagnostics"]["t_end"] == 1.0

    def test_one_stacked_eigh_for_the_checkpoints_before_the_end(self, monkeypatch):
        from apsflow.zoo import random_zoo

        f = random_zoo(1, 5, sizes=(4,))[0]
        prop = evolution.propagate(f, 256)
        spectralflow.flowind_check(f)  # keeps the endpoint projections and the partition
        inputs = []
        original = np.linalg.eigh

        def spy(a, *args, **kwargs):
            inputs.append(np.array(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        rec = apsindex.lorentzian_main_check(f, prop)
        # the 7 checkpoint matrices before T, then the 8 evolved projections
        assert [a.shape for a in inputs] == [(7, 4, 4), (8, 4, 4)]
        assert np.array_equal(inputs[0], f.at_many([e.t for e in rec.checkpoints[:-1]]))

    def test_transport_zoo_work_cuts_each_endpoint_projection_once(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        original = matrixcore.spectral_projection
        cut = []

        def spy(s, *args, **kwargs):
            cut.append(s)
            return original(s, *args, **kwargs)

        for m in (matrixcore, families, apsindex, spectralflow, evolution):
            if getattr(m, "spectral_projection", None) is original:
                monkeypatch.setattr(m, "spectral_projection", spy)
        for case in workloads.TransportZoo.build(0, 6):
            workloads.TransportZoo.work(case)  # flowind, lorentzian-main and the projection route
            for s in case.family.endpoint_spectra:
                assert sum(c is s for c in cut) == 1, case.family.label
            cut.clear()

    def test_bvp_grid_work_splits_each_endpoint_once(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        cases = workloads.BvpGrid.build(0, None)
        eighs = count_endpoint_eighs(monkeypatch)
        asked, built = count_made(monkeypatch, apsindex, "aps_boundary_data", "APSBoundaryData")
        regularized = 0
        for case in cases:
            _, (main, _, _) = workloads.BvpGrid.work(case)
            regularized += main.regularized
            # the family and, for a singular endpoint, its regularized copy
            assert len(eighs) == 1 + main.regularized, case.family.label
            assert id(case.family) in eighs, case.family.label
            assert [count for _, count in eighs.values()] == [2] * len(eighs), case.family.label
            assert len(built) == len(asked) == len(eighs), case.family.label
            eighs.clear()
            asked.clear()
            built.clear()
        assert regularized >= 10

    def test_one_partition_per_family_for_all_three_checks(self, monkeypatch):
        from apsflow.zoo import shipped_families, singular_endpoint_family

        base = ExperimentConfig(family_spec=FamilySpec("constant", {"matrix_diagonal": [1.0]}),
                                steps=128)
        rng = np.random.default_rng(3)
        fams = [*shipped_families(), *(singular_endpoint_family(3, rng) for _ in range(3))]
        asked, built = count_made(monkeypatch, spectralflow, "build_flow_partition", "FlowPartition")
        for f in fams:
            result = cli._family_result(f, base, ("flowind", "lorentzian-main", "riemannian-main"))
            assert all("error" not in e for e in result["results"]), f.label
            assert len(built) == len(asked), f.label
            assert {id(f)} <= {key[0] for key in asked} and len(asked) <= 2, f.label
            asked.clear()
            built.clear()


class TestFlagRanges:
    @pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_FLAGS))
    def test_out_of_range_flag_is_a_usage_error(self, tmp_path, case):
        args, flag = OUT_OF_RANGE_FLAGS[case]
        result = CliRunner().invoke(main, [*args, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Invalid value for '{flag}'" in result.stderr
        assert "Traceback" not in result.output
        assert not (tmp_path / "out").exists()


# each command's arguments, run with --out at or under an existing file
OUT_COMMANDS = {
    "run": ["run", "--config", SHIPPED_CONFIG],
    "suite": ["suite", "counterexample", "--max-blocks", "1"],
    "export": ["export", "eigenflow", "--config", SHIPPED_CONFIG],
}


class TestOutputDirectory:
    @pytest.mark.parametrize("below", [False, True], ids=["at-a-file", "under-a-file"])
    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_blocked_output_directory_is_an_io_error(self, tmp_path, monkeypatch, command, below):
        def computed(*args, **kwargs):
            raise AssertionError("computed before the output directory was made")

        monkeypatch.setattr(cli, "run_suite", computed)
        monkeypatch.setattr(cli, "execute_config", computed)
        monkeypatch.setattr(cli, "write_eigenflow_csv", computed)
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "reports" if below else blocker
        result = CliRunner().invoke(main, [*OUT_COMMANDS[command], "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"I/O error writing under {out}: "), result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert "Traceback" not in result.output

    def test_unwritable_report_is_an_io_error(self, tmp_path):
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        result = CliRunner().invoke(main, ["run", "--config", SHIPPED_CONFIG, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr.splitlines()[-1].startswith(f"I/O error writing under {out}: ")
        assert "Traceback" not in result.output


class TestShippedConfigs:
    CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

    @pytest.mark.parametrize(
        "name", ["constant-split", "scalar-crossing", "counterexample-growth"]
    )
    def test_shipped_configs_parse(self, name):
        config = load_config(str(self.CONFIG_DIR / f"{name}.json"))
        assert config.checks

    def test_constant_split_reports_zero_flow(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "run",
                "--config",
                str(self.CONFIG_DIR / "constant-split.json"),
                "--out",
                str(tmp_path),
            ],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"][0]["sfl"] == 0
        assert report["results"][0]["endpoint_pair_index"] == 0


class TestSuiteCommand:
    def test_counterexample_suite(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["suite", "counterexample", "--max-blocks", "2", "--out", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "suite-counterexample.json").read_text())
        rows = report["sections"]["counterexample"]
        assert [(e["blocks"], e["ker_dim"], e["index"], e["sfl"]) for e in rows] == [
            (1, 1, 0, 0),
            (2, 2, 0, 0),
        ]

    def test_random_suite_deterministic(self, tmp_path):
        a = run_suite("random", seed=7, families=4, max_dim=4, steps=128)
        b = run_suite("random", seed=7, families=4, max_dim=4, steps=128)
        from apsflow.reporting import canonical_json

        assert canonical_json(a) == canonical_json(b)
        assert a["passed"]

    def test_unknown_suite_rejected(self):
        runner = CliRunner()
        result = runner.invoke(main, ["suite", "nonsense"])
        assert result.exit_code == 2


class TestExportCommand:
    def test_eigenflow_export(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(path, output={"path": str(tmp_path), "formats": ["json"]})
        runner = CliRunner()
        result = runner.invoke(
            main, ["export", "eigenflow", "--config", str(path), "--samples", "101"]
        )
        assert result.exit_code == 0
        lines = (tmp_path / "eigenflow.csv").read_text().strip().splitlines()
        assert lines[0] == "t,lambda_1"
        assert len(lines) == 102
        # the scalar eigenvalue t - 1/2 crosses zero at t = 0.5
        mid = [float(x) for x in lines[51].split(",")]
        assert mid[0] == pytest.approx(0.5) and abs(mid[1]) < 1e-12

    def test_propagator_export_matches_exponential(self, tmp_path):
        import scipy.linalg

        path = tmp_path / "config.json"
        write_config(
            path,
            family={"kind": "constant", "parameters": {"matrix_diagonal": [-1.0, 1.0]}},
            propagator={"steps": 32},
            output={"path": str(tmp_path), "formats": ["json"]},
        )
        runner = CliRunner()
        result = runner.invoke(main, ["export", "propagator", "--config", str(path)])
        assert result.exit_code == 0
        from apsflow.evolution import read_propagator

        prop = read_propagator(tmp_path / "propagator.json")
        expected = scipy.linalg.expm(1j * np.diag([-1.0, 1.0]))
        assert np.max(np.abs(prop.unitaries[-1] - expected)) < 1e-12

    def test_operator_export_dimensions(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(
            path,
            family={
                "kind": "diagonal-path",
                "parameters": {"start": [-1.0, 1.0], "end": [-2.0, 2.0]},
            },
            output={"path": str(tmp_path), "formats": ["json"]},
        )
        runner = CliRunner()
        result = runner.invoke(
            main, ["export", "operator", "--config", str(path), "--grid", "16"]
        )
        assert result.exit_code == 0
        header = (tmp_path / "operator.txt").read_text().splitlines()[0]
        # rows M n; cols (M+1) n - rank P_>=0(0) - rank P_<0(T) = 34 - 1 - 1
        assert header == "# rows 32 cols 32"

    def test_operator_export_applies_the_config_tau_0(self, tmp_path):
        # the eigenvalue 5e-9 at t = 0 counts as zero under tau_0 = 1e-8, and
        # lies within TAU_GAP = 1e-7 of the cut under the default 1e-9
        path = tmp_path / "config.json"
        write_config(
            path,
            family=_family("linear", a0_diagonal=[5e-9, -1.0], b_diagonal=[1.0, 0.5]),
            tolerances={"tau_0": 1e-8},
            checks=["riemannian-main"],
            output={"path": str(tmp_path), "formats": ["json"]},
        )
        runner = CliRunner()
        assert runner.invoke(main, ["run", "--config", str(path)]).exit_code == 0
        result = runner.invoke(main, ["export", "operator", "--config", str(path)])
        assert result.exit_code == 0, result.stderr
        header = (tmp_path / "operator.txt").read_text().splitlines()[0]
        # rows M n; cols r_left + (M - 1) n + r_right = 1 + 63 * 2 + 1
        assert header == "# rows 128 cols 128"

    def test_typed_error_is_one_line_exit_one(self, tmp_path):
        # an eigenvalue 5e-8 from zero at t = 0: the boundary split cannot be decided
        path = tmp_path / "config.json"
        write_config(
            path,
            family=_family("diagonal-path", start=[-1.0, 5e-8], end=[1.0, 2.0]),
            output={"path": str(tmp_path), "formats": ["json"]},
        )
        result = CliRunner().invoke(main, ["export", "operator", "--config", str(path)])
        assert result.exit_code == 1, result.output
        assert result.stderr.startswith("export failed: AmbiguousSpectralCutError: "), result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert isinstance(result.exception, SystemExit)  # not the error itself

    def test_missing_config_exit_two(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main, ["export", "eigenflow", "--config", str(tmp_path / "nope.json")]
        )
        assert result.exit_code == 2
