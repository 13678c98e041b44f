"""Command-line harness: declarative configs, check runners, suites, exports.

Exit codes are stable: 0 when every requested check passes, 1 on a check
failure (the report is still written), 2 on a configuration or usage error
or when the output directory cannot be created or written, the latter with
one stderr line ``I/O error writing under <dir>: <reason>``.  The output
directory is created before any computation.
``export`` exits 1 when its computation raises a package error, with one
stderr line ``export failed: <Type>: <message>`` and no traceback.
Reports are byte-deterministic for a fixed config, seed, and version;
wall-clock timings are echoed to stderr and deliberately kept out of the
report files.
"""

import contextlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .apsindex import (
    lorentzian_index_projection,
    lorentzian_index_subspace,
    lorentzian_main_check,
    riemannian_kernel_shooting,
    riemannian_main_check,
    assemble_discretized_operator,
    operator_triplets,
)
from .errors import ApsflowError, ConfigError
from .evolution import (
    SCHEME_CF4,
    SCHEME_MIDPOINT,
    SCHEMES,
    closed_form_counterexample_propagator,
    convergence_study,
    propagate,
    write_propagator,
)
from .families import (
    FamilySpec,
    counterexample_family,
    family_from_spec,
    swap_block_family,
)
from .matrixcore import ToleranceSet
from .reporting import (
    canonical_json,
    write_csv,
    write_eigenflow_csv,
    write_singular_values_csv,
    write_unitarity_drift_csv,
)
from .spectralflow import crossing_log_to_csv, flowind_check, spectral_flow
from .zoo import random_zoo, shipped_families, singular_endpoint_family

SUITE_NAMES = ("theorems", "counterexample", "convergence", "random", "all")
RIEMANNIAN_NORM_CAP = 10.0  # ||A|| * T above this skips the shooting cross-check
SCHEMA_VERSION = 2
MIN_STEPS = 1  # propagator steps, from a config or a flag
MIN_GRID = 4  # boundary-value grid intervals, from a config or a flag
STEPS = click.IntRange(min=MIN_STEPS)
GRID = click.IntRange(min=MIN_GRID)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description."""

    family_spec: FamilySpec
    steps: int = 1024
    scheme: str = SCHEME_MIDPOINT
    oracle_tolerance: float = 1e-6
    grid: int = 64
    tolerances: ToleranceSet = field(default_factory=ToleranceSet)
    checks: tuple[str, ...] = ("flowind",)
    output_path: str = "reports"
    formats: tuple[str, ...] = ("json",)

    def to_dict(self) -> dict:
        return {
            "family": self.family_spec.to_dict(),
            "propagator": {
                "steps": self.steps,
                "scheme": self.scheme,
                "oracle_tolerance": self.oracle_tolerance,
            },
            "grid": self.grid,
            "tolerances": asdict(self.tolerances),
            "checks": list(self.checks),
            "output": {"path": self.output_path, "formats": list(self.formats)},
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _integer(value, name: str) -> int:
    ok = isinstance(value, int) and not isinstance(value, bool)
    _require(ok, f"config.{name} must be an integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    _require(ok, f"config.{name} must be a number, got {value!r}")
    # false for NaN, inf (json reads Infinity and 1e400 as inf) and ints past the float range
    finite = abs(value) <= sys.float_info.max
    _require(finite, f"config.{name} must be finite, got {value!r}")
    return float(value)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config mapping; error messages name the failing field.

    Keys the config leaves out take the ``ExperimentConfig`` field defaults.
    """
    default = {f.name: f.default for f in fields(ExperimentConfig)}
    _require(isinstance(raw, dict), "config must be a JSON object")
    fam = raw.get("family")
    _require(isinstance(fam, dict), "config.family must be an object")
    _require("kind" in fam, "config.family.kind is required")
    params = fam.get("parameters", {})
    _require(isinstance(params, dict), "config.family.parameters must be an object")
    spec = FamilySpec(kind=fam["kind"], parameters=params)

    prop = raw.get("propagator", {})
    _require(isinstance(prop, dict), "config.propagator must be an object")
    steps = _integer(prop.get("steps", default["steps"]), "propagator.steps")
    _require(steps >= MIN_STEPS, f"config.propagator.steps must be >= {MIN_STEPS}")
    scheme = prop.get("scheme", default["scheme"])
    _require(scheme in SCHEMES, f"config.propagator.scheme must be one of {SCHEMES}")
    oracle_tolerance = _number(
        prop.get("oracle_tolerance", default["oracle_tolerance"]), "propagator.oracle_tolerance"
    )
    _require(oracle_tolerance > 0, "config.propagator.oracle_tolerance must be positive")

    grid = _integer(raw.get("grid", default["grid"]), "grid")
    _require(grid >= MIN_GRID, f"config.grid must be >= {MIN_GRID}")

    tol_raw = raw.get("tolerances", {})
    _require(isinstance(tol_raw, dict), "config.tolerances must be an object")
    values = {}
    for f in fields(ToleranceSet):
        value = _number(tol_raw.get(f.name, f.default), f"tolerances.{f.name}")
        _require(value > 0, f"config.tolerances.{f.name} must be positive")
        values[f.name] = value
    unknown = set(tol_raw) - set(values)
    _require(not unknown, f"config.tolerances has unknown keys {sorted(unknown)}")
    tolerances = ToleranceSet(**values)

    checks = raw.get("checks")
    _require(isinstance(checks, list) and checks, "config.checks must be a nonempty list")
    for c in checks:
        _require(c in CHECK_NAMES, f"config.checks entry {c!r} not in {CHECK_NAMES}")

    output = raw.get("output", {})
    _require(isinstance(output, dict), "config.output must be an object")
    formats = output.get("formats", default["formats"])
    _require(isinstance(formats, (list, tuple)), "config.output.formats must be a list")
    formats = tuple(formats)
    for f in formats:
        _require(f in ("json", "csv"), f"config.output.formats entry {f!r} must be json or csv")

    config = ExperimentConfig(
        family_spec=spec,
        steps=steps,
        scheme=scheme,
        oracle_tolerance=oracle_tolerance,
        grid=grid,
        tolerances=tolerances,
        checks=tuple(checks),
        output_path=str(output.get("path", default["output_path"])),
        formats=formats,
    )
    family_from_spec(spec)  # referenced family must be constructible
    if "counterexample-growth" in config.checks:
        _require(
            spec.kind == "counterexample",
            "config.checks includes counterexample-growth but the family kind "
            f"is {spec.kind!r}",
        )
    return config


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    return parse_config(raw)


# ---------------------------------------------------------------------------
# check runners


def _run_flowind(family, config: ExperimentConfig, outdir: Path | None) -> dict:
    tol = config.tolerances
    rec = flowind_check(
        family,
        gamma_min=tol.gamma_min,
        tau_0=tol.tau_0,
        tau_rank=tol.tau_rank,
        raise_on_mismatch=False,
    )
    if outdir is not None and "csv" in config.formats:
        write_eigenflow_csv(family, outdir / "eigenflow.csv")
        crossing_log_to_csv(rec.sfl_report, outdir / "crossings.csv")
    return rec.to_dict()


def _run_lorentzian_main(family, config: ExperimentConfig, outdir: Path | None) -> dict:
    tol = config.tolerances
    prop = propagate(family, config.steps, scheme=config.scheme)
    rec = lorentzian_main_check(
        family,
        prop,
        tau_0=tol.tau_0,
        sigma_cut=tol.sigma_cut,
        gamma_min=tol.gamma_min,
        raise_on_mismatch=False,
    )
    proj = rec.projection_at_end
    sub = lorentzian_index_subspace(
        family, prop, tau_0=tol.tau_0, tau_angle=tol.tau_angle, sigma_cut=tol.sigma_cut
    )
    agree = (proj.ker_dim, proj.coker_dim, proj.index) == (
        sub.ker_dim,
        sub.coker_dim,
        sub.index,
    )
    if outdir is not None and "csv" in config.formats:
        write_unitarity_drift_csv(prop, outdir / "unitarity_drift.csv")
    result = rec.to_dict()
    result["passed"] = rec.passed and agree
    result["methods_agree"] = agree
    result["projection_route"] = proj.to_dict()
    result["subspace_route"] = sub.to_dict()
    result["propagator"] = {
        "steps": config.steps,
        "scheme": config.scheme,
        "unitarity_defect": prop.unitarity_defect(),
    }
    result["warnings"] = [*prop.warnings, *rec.warnings, *sub.warnings]
    return result


def _run_riemannian_main(family, config: ExperimentConfig, outdir: Path | None) -> dict:
    tol = config.tolerances
    rec = riemannian_main_check(
        family,
        config.grid,
        tau_0=tol.tau_0,
        gamma_min=tol.gamma_min,
        raise_on_mismatch=False,
    )
    result = rec.to_dict()
    passed = rec.passed
    if family.norm_bound() * family.horizon <= RIEMANNIAN_NORM_CAP:
        shoot = riemannian_kernel_shooting(
            family, tau_0=tol.tau_0, angle_tol=tol.shooting_angle_tol
        )
        disc = rec.reports[0]
        shoot_agrees = (shoot.ker_dim, shoot.coker_dim) == (disc.ker_dim, disc.coker_dim)
        result["shooting_route"] = shoot.to_dict()
        result["shooting_agrees"] = shoot_agrees
        result["warnings"] += shoot.warnings
        passed = passed and shoot_agrees
    else:
        result["shooting_route"] = None
        result["shooting_agrees"] = None
    if outdir is not None and "csv" in config.formats:
        sigma = rec.reports[0].diagnostics.get("principal_cosines", [])
        write_singular_values_csv(sigma, outdir / "singular_values.csv")
    result["passed"] = passed
    result["grid"] = config.grid
    return result


def _run_counterexample_growth(family, config: ExperimentConfig, outdir: Path | None) -> dict:
    tol = config.tolerances
    m = family.dim // 2
    lambdas = np.linalg.eigvalsh(family.at(0.0).entries)[family.dim - m :].tolist()
    prop = propagate(family, config.steps, scheme=config.scheme)
    exact = closed_form_counterexample_propagator(lambdas, 1.0)
    defect = float(np.linalg.norm(prop.unitaries[-1] - exact, 2))
    proj = lorentzian_index_projection(family, prop, tau_0=tol.tau_0, sigma_cut=tol.sigma_cut)
    sub = lorentzian_index_subspace(
        family, prop, tau_0=tol.tau_0, tau_angle=tol.tau_angle, sigma_cut=tol.sigma_cut
    )
    sfl = spectral_flow(family, gamma_min=tol.gamma_min, tau_0=tol.tau_0).value
    passed = (
        defect <= config.oracle_tolerance
        and proj.ker_dim == sub.ker_dim == m
        and proj.coker_dim == sub.coker_dim == m
        and proj.index == sub.index == 0
        and sfl == 0
    )
    return {
        "check": "counterexample-growth",
        "family": family.label,
        "blocks": m,
        "ker_dim": proj.ker_dim,
        "coker_dim": proj.coker_dim,
        "index": proj.index,
        "sfl": sfl,
        "closed_form_defect": defect,
        "oracle_tolerance": config.oracle_tolerance,
        "propagator": {"steps": config.steps, "scheme": config.scheme},
        "passed": passed,
        "warnings": [*prop.warnings, *proj.warnings, *sub.warnings],
    }


def _run_propagator_convergence(family, config: ExperimentConfig, outdir: Path | None) -> dict:
    study = convergence_study(family, scheme=config.scheme)
    lo, hi = (3.5, 4.5) if config.scheme == SCHEME_MIDPOINT else (12.0, 20.0)
    passed = all(lo <= r <= hi for r in study.ratios)
    result = study.to_dict()
    result["check"] = "propagator-convergence"
    result["ratio_band"] = [lo, hi]
    result["passed"] = passed
    return result


# each check's runner and the ToleranceSet fields it applies, echoed into its records
_CHECKS = {
    "flowind": (_run_flowind, ("tau_0", "tau_rank", "gamma_min")),
    "lorentzian-main": (_run_lorentzian_main, ("tau_0", "gamma_min", "sigma_cut", "tau_angle")),
    "riemannian-main": (_run_riemannian_main, ("tau_0", "gamma_min", "shooting_angle_tol")),
    "counterexample-growth": (
        _run_counterexample_growth,
        ("tau_0", "gamma_min", "sigma_cut", "tau_angle"),
    ),
    "propagator-convergence": (_run_propagator_convergence, ()),
}
CHECK_NAMES = tuple(_CHECKS)


def _run_check(name: str, family, config: ExperimentConfig, outdir: Path | None = None) -> dict:
    """One check record, echoing the tolerances the check applies and
    listing every warning; a typed error becomes a failed entry."""
    runner, tolerances_used = _CHECKS[name]
    try:
        entry = runner(family, config, outdir)
    except ApsflowError as exc:
        entry = {
            "check": name,
            "family": family.label,
            "passed": False,
            "error": f"{type(exc).__name__}: {exc}",
        }
    entry["tolerances"] = {k: getattr(config.tolerances, k) for k in tolerances_used}
    warnings = [*family.construction_warnings, *entry.get("warnings", ())]
    entry["warnings"] = list(dict.fromkeys(warnings))  # drop repeats, keep order
    return entry


def execute_config(
    config: ExperimentConfig,
    *,
    seed: int = 0,
    outdir: Path | None = None,
) -> dict:
    """Run every requested check in declared order; returns the report mapping.

    Each check's wall time goes to stderr, never into the report.
    """
    family = family_from_spec(config.family_spec)
    results = []
    for name in config.checks:
        started = time.perf_counter()
        results.append(_run_check(name, family, config, outdir))
        click.echo(f"  {name}: {time.perf_counter() - started:.2f}s", err=True)
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "seed": seed,
        "config": config.to_dict(),
        "results": results,
        "passed": all(r.get("passed", False) for r in results),
    }


# ---------------------------------------------------------------------------
# suites


def _family_result(family, config: ExperimentConfig, checks: tuple[str, ...]) -> dict:
    entries = [_run_check(name, family, config) for name in checks]
    return {
        "family": family.label,
        "results": entries,
        "passed": all(e.get("passed", False) for e in entries),
    }


def run_suite(
    name: str,
    *,
    seed: int = 0,
    families: int = 100,
    max_dim: int = 16,
    max_blocks: int = 16,
    steps: int = 1024,
    grid: int = 48,
) -> dict:
    """Aggregate suite runner with the default tolerances; deterministic for a fixed seed."""
    base = ExperimentConfig(
        family_spec=FamilySpec("constant", {"matrix_diagonal": [1.0]}),
        steps=steps,
        grid=grid,
    )
    sections: dict[str, list] = {}
    failures = 0

    def add(section: str, entry: dict) -> None:
        nonlocal failures
        sections.setdefault(section, []).append(entry)
        if not entry.get("passed", False):
            failures += 1

    if name in ("theorems", "all"):
        checks = ("flowind", "lorentzian-main", "riemannian-main")
        for family in shipped_families():
            add("theorems", _family_result(family, base, checks))
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        for j in range(20):
            fam = singular_endpoint_family(int(rng.integers(2, 5)), rng)
            add("theorems", _family_result(fam, base, ("flowind", "riemannian-main")))

    if name in ("counterexample", "all"):
        cex_config = replace(base, steps=max(steps, 4096), scheme=SCHEME_CF4)
        for m in (1, 2, 4, 8, 16):
            if m > max_blocks:
                continue
            family = counterexample_family(np.arange(1.0, m + 1.0))
            add("counterexample", _run_check("counterexample-growth", family, cex_config))

    if name in ("convergence", "all"):
        probes = [
            (swap_block_family(-1.0, 1.0), SCHEME_MIDPOINT),
            (swap_block_family(-1.0, 1.0), SCHEME_CF4),
            (random_zoo(1, seed, sizes=(4,))[0], SCHEME_MIDPOINT),
        ]
        for family, scheme in probes:
            cfg = replace(base, scheme=scheme)
            add("convergence", _run_check("propagator-convergence", family, cfg))

    if name in ("random", "all"):
        zoo = random_zoo(families, seed, max_dim=max_dim)
        for family in zoo:
            add("random", _family_result(family, base, ("flowind", "lorentzian-main")))

    return {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "suite": name,
        "seed": seed,
        "size_caps": {
            "families": families,
            "max_dim": max_dim,
            "max_blocks": max_blocks,
            "steps": steps,
            "grid": grid,
        },
        "tolerances": asdict(base.tolerances),
        "sections": sections,
        "failures": failures,
        "passed": failures == 0,
    }


# ---------------------------------------------------------------------------
# commands


@click.group()
@click.version_option(version=__version__, prog_name="apsflow")
def main():
    """Spectral flow and boundary-index experiments on Hermitian families."""


@contextlib.contextmanager
def _writing_under(outdir: Path):
    """Create ``outdir``; an ``OSError`` from that or from the writes inside exits 2."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        click.echo(f"I/O error writing under {outdir}: {exc}", err=True)
        sys.exit(2)


def _config_overrides(config: ExperimentConfig, steps, grid, out, formats) -> ExperimentConfig:
    return replace(
        config,
        steps=steps or config.steps,
        grid=grid or config.grid,
        output_path=out or config.output_path,
        formats=tuple(formats) if formats else config.formats,
    )


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Experiment config (JSON).")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed echoed into the report.")
@click.option("--out", type=click.Path(), default=None, help="Output directory (overrides config).")
@click.option("--format", "formats", multiple=True, type=click.Choice(["json", "csv"]), help="Report formats.")
@click.option("--steps", type=STEPS, default=None, help="Propagator steps (overrides config).")
@click.option("--grid", type=GRID, default=None, help="Boundary-value grid intervals (overrides config).")
@click.option("--strict", is_flag=True, help="Treat family construction warnings as errors.")
def run(config_path, seed, out, formats, steps, grid, strict):
    """Run the checks declared in a config file."""
    try:
        config = load_config(config_path)
        config = _config_overrides(config, steps, grid, out, formats)
        if strict:
            family_from_spec(config.family_spec, strict=True)
    except ApsflowError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    outdir = Path(config.output_path)
    with _writing_under(outdir):
        report = execute_config(config, seed=seed, outdir=outdir)
        path = outdir / "report.json"
        path.write_text(canonical_json(report), encoding="utf-8")
    click.echo(f"report written to {path}")
    for entry in report["results"]:
        status = "pass" if entry.get("passed") else "FAIL"
        click.echo(f"  [{status}] {entry['check']}")
    sys.exit(0 if report["passed"] else 1)


@main.command()
@click.argument("name", type=click.Choice(SUITE_NAMES))
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), default="reports", show_default=True)
@click.option("--format", "formats", multiple=True, type=click.Choice(["json", "csv"]))
@click.option("--families", type=click.IntRange(min=0), default=100, show_default=True, help="Random zoo size.")
@click.option("--max-n", type=click.IntRange(min=2), default=16, show_default=True, help="Largest random family dimension.")
@click.option("--max-blocks", type=click.IntRange(min=0), default=16, show_default=True, help="Largest direct-sum block count.")
@click.option("--steps", type=STEPS, default=1024, show_default=True)
@click.option("--grid", type=GRID, default=48, show_default=True)
def suite(name, seed, out, formats, families, max_n, max_blocks, steps, grid):
    """Run a named reproduction suite and write the aggregate report."""
    started = time.perf_counter()
    outdir = Path(out)
    with _writing_under(outdir):
        report = run_suite(
            name,
            seed=seed,
            families=families,
            max_dim=max_n,
            max_blocks=max_blocks,
            steps=steps,
            grid=grid,
        )
        path = outdir / f"suite-{name}.json"
        path.write_text(canonical_json(report), encoding="utf-8")
        if "csv" in formats and "counterexample" in report["sections"]:
            rows = [
                [e["blocks"], e["ker_dim"], e["coker_dim"], e["index"], e["sfl"]]
                for e in report["sections"]["counterexample"]
            ]
            write_csv(outdir / "counterexample-growth.csv", ["m", "ker_dim", "coker_dim", "index", "sfl"], rows)
    click.echo(f"suite report written to {path}", err=False)
    click.echo(f"  wall time {time.perf_counter() - started:.1f}s", err=True)
    total = sum(len(v) for v in report["sections"].values())
    click.echo(f"  {total - report['failures']}/{total} entries passed")
    sys.exit(0 if report["passed"] else 1)


@main.command()
@click.argument("what", type=click.Choice(["eigenflow", "propagator", "operator"]))
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=None, help="Output directory (overrides config).")
@click.option("--samples", type=click.IntRange(min=1), default=101, show_default=True, help="Eigenflow time samples.")
@click.option("--steps", type=STEPS, default=None)
@click.option("--grid", type=GRID, default=None)
def export(what, config_path, out, samples, steps, grid):
    """Export eigenvalue flows, propagators, or the discretized operator."""
    try:
        config = load_config(config_path)
        config = _config_overrides(config, steps, grid, out, None)
        family = family_from_spec(config.family_spec)
    except ApsflowError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    outdir = Path(config.output_path)
    with _writing_under(outdir):
        try:
            if what == "eigenflow":
                path = outdir / "eigenflow.csv"
                write_eigenflow_csv(family, path, samples)
            elif what == "propagator":
                prop = propagate(family, config.steps, scheme=config.scheme)
                path = outdir / "propagator.json"
                write_propagator(prop, path)
            else:
                op = assemble_discretized_operator(
                    family, config.grid, tau_0=config.tolerances.tau_0
                )
                path = outdir / "operator.txt"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(f"# rows {op.shape[0]} cols {op.shape[1]}\n")
                    for r, c, re, im in operator_triplets(op):
                        fh.write(f"{r} {c} {re!r} {im!r}\n")
        except ApsflowError as exc:
            click.echo(f"export failed: {type(exc).__name__}: {exc}", err=True)
            sys.exit(1)
    click.echo(f"wrote {path}")
    sys.exit(0)


if __name__ == "__main__":
    main()
