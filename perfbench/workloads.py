"""The benchmark's workloads: inputs drawn from a seed, set-up, timed study.

Every workload is one batch availability study, issued by one client that
waits for it (a closed loop with a single caller).  The seed draws only
*rate values*; structures and axis sizes are fixed, so the amount of work,
the number of result rows and the dedupe share do not depend on the seed.
Rate values are drawn from small fixed pools, so the stored references in
``references/`` cover every seed (see ``references.py``).

Nothing here imports the program at module level: the parent process of a
run only needs the pure-Python input description and the row keys, and a
child process pays for the imports inside its measured set-up.

A row is one (scenario, measure) pair; for the transient workload it is one
(scenario, time point) pair whose value is ``[point, interval]``
availability.

``BENCHMARK.json`` lists ``design_grid`` and ``mission_transient``.
``fig7_faithful`` stays runnable by name, but is not listed: its study is
one cold solve of a 57 188-state chain, about 50 s, so a run holds a
single sample.  Its factors spill out of the core's L2 cache into the
host's shared L3, and ten runs spread 25-30% (IQR / median), past the
25% a benchmark bound may be.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

#: Figure 7 axes of the paper: network-speed coefficient and disaster mean time.
FIG7_ALPHAS = (0.35, 0.40, 0.45)
FIG7_YEARS = (100.0, 200.0, 300.0)

#: Number of city pairs of the case study (``repro.core.scenarios.CITY_PAIRS``).
CITY_PAIR_COUNT = 5

#: Wider rate pools of the design grid.
GRID_ALPHAS = (0.30, 0.35, 0.40, 0.45, 0.50)
GRID_YEARS = (50.0, 100.0, 200.0, 300.0, 500.0)
GRID_TRANSFER_HOURS = (0.10, 0.15, 0.20, 0.25, 0.30, 0.40)
#: 2-DC structures: (machines per data center, backup server on).
GRID_PAIR_DESIGNS = ((1, True), (1, False), (2, True), (2, False))
GRID_POINTS_PER_PAIR_DESIGN = 9
#: First (cold-solved) point of every 2-DC and mesh group: (α, years) and
#: (transfer hours, years).
GRID_PAIR_BASELINE = (0.35, 100.0)
GRID_MESH_BASELINE = (0.25, 100.0)
#: Homogeneous meshes lumped DC+PM: (data centers, machines per data center).
GRID_MESHES = ((3, 2), (4, 1), (5, 1))
GRID_POINTS_PER_MESH = 12
#: Mesh cases repeated with another α: the uniform transfer time makes α
#: irrelevant, so each repeat is rate-identical and dedupes to one solve.
GRID_ALPHA_REPEATS_PER_MESH = 4
GRID_SINGLE_SITES = ("Rio de Janeiro", "Brasilia", "Recife")
GRID_SINGLE_YEARS = 2
GRID_REPEAT_ALPHA = 0.50

#: Mission-window workload: the paper's 5-minute VM start time is always the
#: fastest scenario (the uniformization rate, and with it the run length, is
#: set by the fastest start), the other three are drawn from slower bands.
#: It runs on the two-data-center model with one PM per data center (3 048
#: states): its working set fits the core's L2 cache, so a study takes a
#: fraction of a second and a run reports the median of many.
MISSION_MACHINES = 1
MISSION_FIXED_MINUTES = 5.0
MISSION_MINUTE_BANDS = ((15.0, 20.0, 25.0, 30.0), (45.0, 60.0, 75.0), (90.0, 120.0, 150.0))
MISSION_WINDOW_HOURS = 72.0
MISSION_POINTS = 25


def _number(value: float) -> str:
    return f"{value:g}"


@dataclass
class Context:
    """Host-independent settings pinned by the run (see ``run.py``).

    ``cache_dir`` is the child's private TRG cache, warmed by the set-up;
    ``study_dir`` is an empty directory of the current study.
    """

    jobs: int
    memory_budget: int
    cache_dir: str
    study_dir: str


@dataclass
class StudyOutput:
    """What a timed study returns: result rows, exact counts, the cache it used."""

    rows: dict
    counts: dict
    groups: list
    cache_dir: str


# --- fig7_faithful ------------------------------------------------------------


def fig7_inputs(seed: int) -> dict:
    """The first pair's baseline bar, then one drawn (α, years) bar per pair.

    Figure 7 reads every bar against its pair's baseline (α = 0.35, 100
    years), so the study starts there.  That point also takes the one cold
    solve, whose cost depends on the rates it factorises: starting from the
    same point keeps the run length independent of the seed.
    """
    rng = random.Random(f"fig7_faithful:{seed}")
    points = [{"pair": 0, "alpha": FIG7_ALPHAS[0], "years": FIG7_YEARS[0]}]
    for pair in range(CITY_PAIR_COUNT):
        drawn = [(a, y) for a in FIG7_ALPHAS for y in FIG7_YEARS]
        if pair == 0:
            drawn.remove((FIG7_ALPHAS[0], FIG7_YEARS[0]))
        alpha, years = rng.choice(drawn)
        points.append({"pair": pair, "alpha": alpha, "years": years})
    return {"points": points}


def fig7_key(point: dict) -> str:
    return f"pair={point['pair']}|alpha={_number(point['alpha'])}|years={_number(point['years'])}"


def fig7_rows(inputs: dict) -> dict:
    """Row key -> reference key (identical for steady-state Figure 7 points)."""
    return {fig7_key(point): fig7_key(point) for point in inputs["points"]}


def _two_dc_runner(context: Context, machines: int = 2):
    """The case-study runner; two PMs per data center is the paper's faithful model."""
    from repro.casestudy.runner import DistributedSweepRunner

    return DistributedSweepRunner(cache_dir=context.cache_dir, machines_per_datacenter=machines)


def _warm_cache(context: Context, machines: int = 2) -> None:
    """Generate the PM-lumped graph into the private cache."""
    _two_dc_runner(context, machines).graph()


def _one_graph_output(engine, rows: dict, cases: int, deduped: int, cache_dir: str) -> StudyOutput:
    """Counts and provenance of a study over one shared two-data-center graph."""
    graph = engine.graph()
    return StudyOutput(
        rows=rows,
        counts={
            "states": graph.number_of_states,
            "edges": int(graph.edge_sources.size),
            "groups": 1,
            "deduped_cases": deduped,
            "cache_hits": int(engine.graph_source == "cache"),
            "cache_misses": int(engine.graph_source != "cache"),
            "chunked_groups": 0,
        },
        groups=[
            {
                "cases": cases,
                "states": graph.number_of_states,
                "representation": engine.representation,
                "graph_source": engine.graph_source,
                "backend": engine.last_run_backend,
            }
        ],
        cache_dir=cache_dir,
    )


def fig7_setup(inputs: dict, context: Context):
    from repro.core.scenarios import CITY_PAIRS, DistributedScenario

    _warm_cache(context)
    return [
        DistributedScenario(
            *CITY_PAIRS[point["pair"]],
            alpha=point["alpha"],
            disaster_mean_time_years=point["years"],
        )
        for point in inputs["points"]
    ]


def fig7_study(inputs: dict, scenarios, context: Context) -> StudyOutput:
    runner = _two_dc_runner(context)
    engine = runner.engine()
    results = engine.run(
        [runner.scenario_spec(scenario) for scenario in scenarios],
        [runner.availability_measure()],
        max_workers=context.jobs,
    )
    rows = {
        fig7_key(point): result.value("availability")
        for point, result in zip(inputs["points"], results)
    }
    return _one_graph_output(
        engine, rows, len(results), engine.last_run_dedupe.deduped, context.cache_dir
    )


# --- mission_transient --------------------------------------------------------


def mission_inputs(seed: int) -> dict:
    rng = random.Random(f"mission_transient:{seed}")
    minutes = [MISSION_FIXED_MINUTES] + [rng.choice(band) for band in MISSION_MINUTE_BANDS]
    return {
        "minutes": minutes,
        "window_hours": MISSION_WINDOW_HOURS,
        "points": MISSION_POINTS,
    }


def mission_times(inputs: dict) -> list:
    window, points = inputs["window_hours"], inputs["points"]
    return [window * index / (points - 1) for index in range(points)]


def mission_key(minutes: float, hours: float) -> str:
    return f"minutes={_number(minutes)}|t={hours:.6f}"


def mission_rows(inputs: dict) -> dict:
    return {
        mission_key(minutes, hours): mission_key(minutes, hours)
        for minutes in inputs["minutes"]
        for hours in mission_times(inputs)
    }


def mission_setup(inputs: dict, context: Context):
    _warm_cache(context, MISSION_MACHINES)
    return None


def mission_study(inputs: dict, state, context: Context) -> StudyOutput:
    from repro.casestudy.transient import reproduce_transient

    runner = _two_dc_runner(context, MISSION_MACHINES)
    curves = reproduce_transient(
        runner,
        minutes=inputs["minutes"],
        window_hours=inputs["window_hours"],
        points=inputs["points"],
        max_workers=context.jobs,
    )
    rows = {}
    for curve in curves:
        for hours, point, interval in zip(
            curve.times_hours, curve.point_availability, curve.interval_availability
        ):
            rows[mission_key(curve.vm_start_minutes, float(hours))] = [
                float(point),
                float(interval),
            ]
    return _one_graph_output(runner.engine(), rows, len(curves), 0, context.cache_dir)


# --- design_grid --------------------------------------------------------------


def grid_pair_key(pair: int, machines: int, backup: bool, alpha: float, years: float) -> str:
    return (
        f"2dc|pair={pair}|m={machines}|backup={int(backup)}"
        f"|alpha={_number(alpha)}|years={_number(years)}"
    )


def grid_mesh_key(datacenters: int, machines: int, hours: float, years: float) -> str:
    """Reference key of a mesh case (α does not change a uniform mesh's rates)."""
    return f"mesh|n={datacenters}|m={machines}|transfer={_number(hours)}|years={_number(years)}"


def grid_single_key(years: float) -> str:
    """Reference key of a single site (its location does not change its rates)."""
    return f"single|m=2|years={_number(years)}"


def _sweep(rng: random.Random, points: list, baseline: tuple, count: int) -> list:
    """The baseline point, then ``count - 1`` distinct drawn points in sweep order.

    A structure group is solved in case order, the first point cold and the
    rest warm-started from their predecessor; a fixed first point and a
    sorted sweep keep the solver's work from depending on the seed.
    """
    others = [point for point in points if point != baseline]
    return [baseline] + sorted(rng.sample(others, count - 1))


def grid_inputs(seed: int) -> dict:
    """Case descriptions: ``row`` names the case, ``ref`` its rate-relevant key."""
    rng = random.Random(f"design_grid:{seed}")
    cases = []
    pair_points = [(a, y) for a in GRID_ALPHAS for y in GRID_YEARS]
    for pair in range(CITY_PAIR_COUNT):
        for machines, backup in GRID_PAIR_DESIGNS:
            drawn = _sweep(rng, pair_points, GRID_PAIR_BASELINE, GRID_POINTS_PER_PAIR_DESIGN)
            for alpha, years in drawn:
                key = grid_pair_key(pair, machines, backup, alpha, years)
                cases.append(
                    {
                        "kind": "pair",
                        "pair": pair,
                        "machines": machines,
                        "backup": backup,
                        "alpha": alpha,
                        "years": years,
                        "row": key,
                        "ref": key,
                    }
                )
    mesh_points = [(h, y) for h in GRID_TRANSFER_HOURS for y in GRID_YEARS]
    for datacenters, machines in GRID_MESHES:
        drawn = _sweep(rng, mesh_points, GRID_MESH_BASELINE, GRID_POINTS_PER_MESH)
        alphas = [FIG7_ALPHAS[0]] * len(drawn) + [GRID_REPEAT_ALPHA] * GRID_ALPHA_REPEATS_PER_MESH
        for (hours, years), alpha in zip(drawn + drawn[:GRID_ALPHA_REPEATS_PER_MESH], alphas):
            ref = grid_mesh_key(datacenters, machines, hours, years)
            cases.append(
                {
                    "kind": "mesh",
                    "datacenters": datacenters,
                    "machines": machines,
                    "transfer_hours": hours,
                    "alpha": alpha,
                    "years": years,
                    "row": f"{ref}|alpha={_number(alpha)}",
                    "ref": ref,
                }
            )
    for years in rng.sample(GRID_YEARS, GRID_SINGLE_YEARS):
        for city in GRID_SINGLE_SITES:
            ref = grid_single_key(years)
            cases.append(
                {
                    "kind": "single",
                    "city": city,
                    "years": years,
                    "row": f"{ref}|city={city}",
                    "ref": ref,
                }
            )
    return {"cases": cases}


def grid_rows(inputs: dict) -> dict:
    return {case["row"]: case["ref"] for case in inputs["cases"]}


def grid_parameters():
    """One VM per machine and one required running VM, for every design."""
    from repro.core import CaseStudyParameters

    return CaseStudyParameters(required_running_vms=1, vms_per_physical_machine=1)


def grid_scenario(case: dict):
    """The case-study scenario object of one design-grid case description."""
    from repro.core.scenarios import (
        CITY_PAIRS,
        MultiDataCenterScenario,
        SingleDataCenterScenario,
        homogeneous_mesh_scenario,
    )
    from repro.network import geo

    if case["kind"] == "pair":
        return MultiDataCenterScenario(
            locations=CITY_PAIRS[case["pair"]],
            alpha=case["alpha"],
            disaster_mean_time_years=case["years"],
            machines_per_datacenter=case["machines"],
            has_backup_server=case["backup"],
            capacity_aware_migration=True,
        )
    if case["kind"] == "mesh":
        return homogeneous_mesh_scenario(
            case["datacenters"],
            machines_per_datacenter=case["machines"],
            transfer_hours=case["transfer_hours"],
            capacity_aware_migration=True,
            alpha=case["alpha"],
            disaster_mean_time_years=case["years"],
        )
    city = next(
        value
        for value in vars(geo).values()
        if isinstance(value, geo.City) and value.name == case["city"]
    )
    return SingleDataCenterScenario(
        machines=2,
        label=f"{grid_single_key(case['years'])}|city={case['city']}",
        disaster_mean_time_years=case["years"],
        location=city,
    )


def grid_setup(inputs: dict, context: Context):
    from repro.casestudy.grid import evaluate_grid  # noqa: F401  (import cost is set-up)

    return [grid_scenario(case) for case in inputs["cases"]]


def grid_study(inputs: dict, scenarios, context: Context) -> StudyOutput:
    from repro.casestudy.grid import evaluate_grid

    cache_dir = f"{context.study_dir}/cache"  # cold: empty for every study
    outcome = evaluate_grid(
        scenarios,
        grid_parameters(),
        jobs=context.jobs,
        cache_dir=cache_dir,
        shard_directory=f"{context.study_dir}/shards",
        memory_budget=context.memory_budget,
    )
    cases = inputs["cases"]
    rows = {cases[result.grid_index]["row"]: result.value("availability") for result in outcome.results}
    groups = [
        {
            "key": report.key,
            "cases": report.cases,
            "states": report.number_of_states,
            "representation": report.representation,
            "graph_source": report.graph_source,
            "backend": report.backend,
            "planner_estimated_bytes": report.estimated_peak_bytes,
            "memory_budget_bytes": report.memory_budget_bytes,
            "deduped_cases": report.deduped_cases,
            "symmetry": report.symmetry,
            "states_before_estimate": report.states_before_estimate,
            "generate_seconds": report.generate_seconds,
            "solve_seconds": report.solve_seconds,
            "queue_wait_seconds": report.queue_wait_seconds,
            "generate_finished_at": report.generate_finished_at,
            "solve_started_at": report.solve_started_at,
            "generate_attempts": report.generate_attempts,
            "solve_attempts": report.solve_attempts,
            "first_case": next(
                result.grid_index for result in outcome.results if result.group == report.key
            ),
        }
        for report in outcome.groups
    ]
    return StudyOutput(
        rows=rows,
        counts={
            "states": sum(group["states"] for group in groups),
            "groups": len(groups),
            "deduped_cases": outcome.deduped_cases,
            "cache_hits": sum(group["graph_source"] == "cache" for group in groups),
            "cache_misses": sum(group["graph_source"] != "cache" for group in groups),
            "chunked_groups": sum(group["representation"] == "chunked" for group in groups),
            "failures": len(outcome.failures),
            "total_seconds": outcome.total_seconds,
        },
        groups=groups,
        cache_dir=cache_dir,
    )


def grid_after(inputs: dict, scenarios, output: StudyOutput) -> None:
    """Planner estimate ÷ actual states per group, computed after the timing."""
    from repro.casestudy.grid import scenario_case
    from repro.engine.dispatch import estimate_tangible_states
    from repro.spn.enabling import CompiledNet
    from repro.spn.reachability import DEFAULT_MAX_TANGIBLE_MARKINGS

    ratios = []
    for group in output.groups:
        case = scenario_case(scenarios[group["first_case"]], parameters=grid_parameters())
        estimate = estimate_tangible_states(CompiledNet(case.net), DEFAULT_MAX_TANGIBLE_MARKINGS)
        group["planner_estimated_states"] = estimate
        ratios.append(estimate / max(1, group["states"]))
    output.counts["est_state_ratio_max"] = max(ratios) if ratios else 0.0


@dataclass(frozen=True)
class Workload:
    """A named workload: seed -> inputs -> row keys; set-up, timed study, untimed after-step."""

    name: str
    inputs: Callable[[int], dict]
    rows: Callable[[dict], dict]
    setup: Callable
    study: Callable
    after: Callable = lambda inputs, state, output: None


WORKLOADS = {
    "fig7_faithful": Workload("fig7_faithful", fig7_inputs, fig7_rows, fig7_setup, fig7_study),
    "design_grid": Workload(
        "design_grid", grid_inputs, grid_rows, grid_setup, grid_study, grid_after
    ),
    "mission_transient": Workload(
        "mission_transient", mission_inputs, mission_rows, mission_setup, mission_study
    ),
}
