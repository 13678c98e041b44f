"""The benchmark workloads: which families each builds and what it runs on them.

Each workload drives the public ``apsflow`` API the way ``apsflow suite``
does, one family at a time.  ``build`` makes the families from the seed and
applies the norm gates (it is the set-up the benchmark times as
``setup_s``); ``work`` is the per-family cross-check whose latency is timed;
``check`` verifies every integer ``work`` returned, outside the timed
region.

Program functions are looked up through their modules at call time
(``apsindex.riemannian_main_check(...)``, not a name bound at import) so
that the span wrappers of ``tracing.py`` see every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from apsflow import apsindex, evolution, families, spectralflow, zoo
from apsflow.cli import RIEMANNIAN_NORM_CAP, ToleranceSet

TOL = ToleranceSet()  # the thresholds `apsflow suite` passes to every check
# ||A|| T above this skips the boundary-value checks; a literal in
# `apsflow.cli.run_suite` (theorems section), which has no name to import
STIFFNESS_GATE = 40.0

ZOO_FAMILIES = 40
ZOO_INTERVALS = 1024
BVP_GRID = 48
BVP_STABILITY_GRIDS = (32, 64)
BVP_SINGULAR_DRAWS = 20
BVP_ZOO_DRAWS = 12


@dataclass(frozen=True)
class Case:
    """One family of a workload with the facts set-up decided about it."""

    family: families.OperatorFamily
    shoot: bool = False  # bvp-grid: run the shooting route too


def negative_count(family, t: float) -> int:
    """rank P_<0(A(t)), computed here with eigvalsh and tau_0 snapping.

    Evaluates the family's own formula, not ``OperatorFamily.at``, so the
    oracle shares no code with the program beyond the input.
    """
    a = np.asarray(family.eval_fn(t), dtype=complex)
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    w[np.abs(w) <= TOL.tau_0] = 0.0
    return int(np.count_nonzero(w < 0.0))


def endpoint_difference(family, t: float) -> int:
    """rank P_<0(0) - rank P_<0(t): the integer every route must reproduce."""
    return negative_count(family, 0.0) - negative_count(family, t)


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _route_ints(rep) -> list[int]:
    return [rep.ker_dim, rep.coker_dim, rep.index]


def _interleave(groups: list[list]) -> list:
    """Spread each group evenly over one list, keeping each group's order.

    The n = 16 draws cost far more than the rest.  Spread through the pass,
    they share any drift in machine speed during a pass with the small
    families behind p50, instead of meeting it in one block.
    """
    keyed = [
        ((j + 0.5) / len(group), g, item)
        for g, group in enumerate(groups)
        for j, item in enumerate(group)
    ]
    return [item for _, _, item in sorted(keyed, key=lambda k: k[:2])]


class TransportZoo:
    """Many small families through evaluation, step exponentials and checkpoint flows."""

    name = "transport-zoo"

    @staticmethod
    def build(seed: int, limit: int | None) -> list[Case]:
        count = ZOO_FAMILIES if limit is None else min(limit, ZOO_FAMILIES)
        return [Case(f) for f in zoo.random_zoo(count, seed, max_dim=16)]

    @staticmethod
    def work(case: Case):
        f = case.family
        flow = spectralflow.flowind_check(
            f,
            gamma_min=TOL.gamma_min,
            tau_0=TOL.tau_0,
            tau_rank=TOL.tau_rank,
            raise_on_mismatch=False,
        )
        prop = evolution.propagate(f, ZOO_INTERVALS, scheme=evolution.SCHEME_MIDPOINT)
        main = apsindex.lorentzian_main_check(
            f, prop, tau_0=TOL.tau_0, sigma_cut=TOL.sigma_cut, raise_on_mismatch=False
        )
        proj = apsindex.lorentzian_index_projection(
            f, prop, tau_0=TOL.tau_0, sigma_cut=TOL.sigma_cut
        )
        sub = apsindex.lorentzian_index_subspace(
            f, prop, tau_0=TOL.tau_0, tau_angle=TOL.tau_angle, sigma_cut=TOL.sigma_cut
        )
        transport = main.to_dict()
        transport["projection_route"] = proj.to_dict()
        transport["subspace_route"] = sub.to_dict()
        transport["unitarity_defect"] = prop.unitarity_defect()
        return [flow.to_dict(), transport], (flow, main, proj, sub)

    @staticmethod
    def check(case: Case, out) -> tuple[list[int], list[str]]:
        flow, main, proj, sub = out
        f = case.family
        problems: list[str] = []
        d_end = endpoint_difference(f, f.horizon)
        _expect(problems, flow.passed and main.passed, "a record reports passed=False")
        _expect(
            problems,
            flow.sfl_value == flow.pair_index == d_end,
            f"flow {flow.sfl_value} / pair index {flow.pair_index} != endpoint difference {d_end}",
        )
        for c in main.checkpoints:
            d = endpoint_difference(f, c.t)
            _expect(
                problems,
                c.index == c.sfl == d,
                f"checkpoint t={c.t}: index {c.index} / flow {c.sfl} != endpoint difference {d}",
            )
        _expect(
            problems,
            _route_ints(proj) == _route_ints(sub),
            f"transport routes disagree: {_route_ints(proj)} vs {_route_ints(sub)}",
        )
        _expect(problems, proj.index == d_end, f"transport index {proj.index} != {d_end}")
        last = main.checkpoints[-1]
        _expect(
            problems,
            last.t == f.horizon
            and (last.ker_dim, last.coker_dim) == (proj.ker_dim, proj.coker_dim),
            "last checkpoint does not reproduce the projection route at T",
        )
        ints = [flow.sfl_value, flow.pair_index]
        for c in main.checkpoints:
            ints += [c.index, c.sfl, c.ker_dim, c.coker_dim]
        ints += _route_ints(proj) + _route_ints(sub)
        return ints, problems


class BvpGrid:
    """Boundary-value index by dense Crank-Nicolson SVD, grid stability and shooting."""

    name = "bvp-grid"

    @staticmethod
    def build(seed: int, limit: int | None) -> list[Case]:
        shipped = [
            f for f in zoo.shipped_families() if f.norm_bound() * f.horizon <= STIFFNESS_GATE
        ]
        # `apsflow suite theorems` draws n from 2..4 at random; cycling n
        # instead keeps the cost of a pass the same for every seed
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        singular = [
            zoo.singular_endpoint_family(2 + j % 3, rng) for j in range(BVP_SINGULAR_DRAWS)
        ]
        draws = zoo.random_zoo(BVP_ZOO_DRAWS, seed, sizes=(4, 8, 16))
        drawn = [f for f in draws if f.norm_bound() * f.horizon <= RIEMANNIAN_NORM_CAP]
        cases = [
            Case(f, shoot=f.norm_bound() * f.horizon <= RIEMANNIAN_NORM_CAP)
            for f in _interleave([shipped, singular, drawn])
        ]
        return cases if limit is None else cases[:limit]

    @staticmethod
    def work(case: Case):
        f = case.family
        main = apsindex.riemannian_main_check(
            f, BVP_GRID, tau_0=TOL.tau_0, raise_on_mismatch=False
        )
        grids = [
            apsindex.riemannian_index_discretized(f, m, tau_0=TOL.tau_0)
            for m in BVP_STABILITY_GRIDS
        ]
        shoot = None
        if case.shoot:
            shoot = apsindex.riemannian_kernel_shooting(
                f, tau_0=TOL.tau_0, angle_tol=TOL.shooting_angle_tol
            )
        record = main.to_dict()
        record["grid_stability"] = [r.to_dict() for r in grids]
        record["shooting_route"] = None if shoot is None else shoot.to_dict()
        return [record], (main, grids, shoot)

    @staticmethod
    def check(case: Case, out) -> tuple[list[int], list[str]]:
        main, grids, shoot = out
        f = case.family
        problems: list[str] = []
        d = endpoint_difference(f, f.horizon)
        _expect(problems, main.passed, "riemannian-main reports passed=False")
        _expect(
            problems,
            main.sfl_raw == main.index_raw == d,
            f"flow {main.sfl_raw} / index {main.index_raw} != endpoint difference {d}",
        )
        if main.regularized:
            _expect(
                problems,
                main.sfl_regularized == main.index_regularized == d,
                f"regularized flow {main.sfl_regularized} / index "
                f"{main.index_regularized} != endpoint difference {d}",
            )
        base = main.reports[0]
        for rep, m in zip(grids, BVP_STABILITY_GRIDS):
            _expect(
                problems,
                (rep.ker_dim, rep.coker_dim) == (base.ker_dim, base.coker_dim),
                f"grid M={m} gives (ker, coker) ({rep.ker_dim}, {rep.coker_dim}), "
                f"M={BVP_GRID} gives ({base.ker_dim}, {base.coker_dim})",
            )
            _expect(problems, rep.index == d, f"index at M={m} is {rep.index}, not {d}")
        ints = [main.sfl_raw, main.index_raw, int(main.regularized)]
        ints += [x for rep in main.reports for x in _route_ints(rep)]
        if main.regularized:
            ints += [main.sfl_regularized, main.index_regularized]
        ints += [x for rep in grids for x in _route_ints(rep)]
        if shoot is not None:
            _expect(
                problems,
                (shoot.ker_dim, shoot.coker_dim) == (base.ker_dim, base.coker_dim),
                f"shooting gives ({shoot.ker_dim}, {shoot.coker_dim}), discretization "
                f"({base.ker_dim}, {base.coker_dim})",
            )
            _expect(problems, shoot.index == d, f"shooting index {shoot.index} != {d}")
            ints += _route_ints(shoot)
        return ints, problems


WORKLOADS = {w.name: w for w in (TransportZoo, BvpGrid)}
