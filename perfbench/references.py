"""Make the stored reference values the benchmark checks every result row against.

Usage (from the root of a checkout; slow — minutes per workload)::

    PYTHONPATH=src python3 perfbench/references.py [workload ...]

The seed of a run only draws rate values from the small pools in
``workloads.py``, so one reference per pool point covers every seed.  The
values come from solver paths independent of the engine's
(``ReusableSolver``, ``MatrixFreeSolver``, ``transient_reward_block`` and the
``RewardMatrix`` GEMM), on the same generated state space:

* steady state: ``markov.solvers.constrained_balance_system`` solved with
  ``markov.solvers.steady_state`` (direct LU, or GTH for tiny chains) up to
  20 000 states, and above that with ``markov.solvers.
  steady_state_matrix_free`` under a tighter incomplete LU (built once,
  reused across points) and a 1e-15 residual target;
* transient: per scenario and time point, ``markov.transient.
  transient_distribution`` for point availability, and ``scipy``'s
  ``expm_multiply`` on the reward-accumulating augmented generator for
  interval availability (its point half must agree with uniformization
  within 1e-10);
* measures through ``SteadyStateSolution.measure`` per vector.

Each file records the largest true residual ‖πQ‖∞/‖Q‖∞ of its stationary
vectors.  ``fig7_faithful`` also solves every point once matrix-free on the
chunked representation and requires it to match the in-RAM engine within
1e-12.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

import workloads

HERE = Path(__file__).resolve().parent

#: Cross-check bound between the chunked matrix-free and the in-RAM engine.
REPRESENTATION_DELTA = 1e-12
#: Self-check bound between the two transient reference methods.
TRANSIENT_METHOD_DELTA = 1e-10


def true_residual(generator, vector) -> float:
    matrix = sparse.csr_matrix(generator)
    norm = float(abs(matrix).sum(axis=1).max())
    return float(np.abs(matrix.T @ vector).max()) / norm


class LargeChainSolver:
    """Tight ILU-preconditioned matrix-free solve, factor reused across points."""

    def __init__(self) -> None:
        self.preconditioner = None
        self.previous = None

    def solve(self, generator) -> np.ndarray:
        from repro.markov import solvers

        system, rhs = solvers.constrained_balance_system(generator)
        if self.preconditioner is None:
            factor = sparse_linalg.spilu(system, drop_tol=1e-8, fill_factor=30.0)
            self.preconditioner = sparse_linalg.LinearOperator(system.shape, factor.solve)
        solution, _ = solvers.steady_state_matrix_free(
            sparse_linalg.aslinearoperator(system),
            rhs,
            preconditioner=self.preconditioner,
            x0=self.previous,
            rtol=1e-15,
            residual_target=1e-15,
        )
        self.previous = solution
        return solvers.normalize_distribution(solution)


def stationary(generator, large: LargeChainSolver) -> np.ndarray:
    from repro.markov import solvers

    if generator.shape[0] > 20_000:
        return large.solve(generator)
    return solvers.steady_state(generator)


def rerated(graph, rates: dict):
    from repro.spn.parametric import rate_vector_with_overrides

    return graph.with_rate_vector(rate_vector_with_overrides(graph, rates))


def availability(graph, vector, measure) -> float:
    from repro.spn.analysis import SteadyStateSolution

    return float(SteadyStateSolution(graph=graph, probabilities=vector).measure(measure))


def two_dc_graph(machines: int = 2):
    """Runner, model and PM-lumped graph of the two-data-center case study."""
    from repro.casestudy.runner import DistributedSweepRunner
    from repro.spn.reachability import generate_tangible_reachability_graph

    runner = DistributedSweepRunner(use_cache=False, machines_per_datacenter=machines)
    model = runner.reference_model()
    graph = generate_tangible_reachability_graph(
        model.build(),
        max_states=runner.max_states,
        canonicalize=model.symmetry_canonicalizer(),
    )
    return runner, model, graph


def fig7_references() -> dict:
    from repro.core.scenarios import CITY_PAIRS, DistributedScenario
    from repro.engine import ScenarioBatchEngine
    from repro.spn.ctmc_export import generator_matrix

    runner, model, graph = two_dc_graph()
    measure = runner.availability_measure()
    large = LargeChainSolver()
    values, residual, specs, keys = {}, 0.0, [], []
    for pair, alpha, years in product(
        range(workloads.CITY_PAIR_COUNT), workloads.FIG7_ALPHAS, workloads.FIG7_YEARS
    ):
        point = {"pair": pair, "alpha": alpha, "years": years}
        scenario = DistributedScenario(
            *CITY_PAIRS[pair], alpha=alpha, disaster_mean_time_years=years
        )
        spec = runner.scenario_spec(scenario)
        scenario_graph = rerated(graph, spec.resolved_rates())
        generator = generator_matrix(scenario_graph)
        vector = stationary(generator, large)
        residual = max(residual, true_residual(generator, vector))
        key = workloads.fig7_key(point)
        values[key] = availability(scenario_graph, vector, measure)
        specs.append(spec)
        keys.append(key)
        print(f"fig7 {key}: {values[key]!r}", flush=True)

    # In-RAM engine vs chunked matrix-free engine on every point.
    in_ram = ScenarioBatchEngine(graph).run(specs, [measure])
    chunked = ScenarioBatchEngine(
        model.build(),
        representation="chunked",
        max_states=runner.max_states,
        canonicalize=model.symmetry_canonicalizer(),
    ).run(specs, [measure])
    delta = max(
        abs(a.value("availability") - b.value("availability")) for a, b in zip(in_ram, chunked)
    )
    reference_delta = max(
        abs(result.value("availability") - values[key]) for result, key in zip(in_ram, keys)
    )
    print(f"fig7 chunked vs in-RAM engine: max delta {delta:.3e}", flush=True)
    if delta > REPRESENTATION_DELTA:
        raise SystemExit(f"chunked and in-RAM engines differ by {delta:.3e}")
    return {
        "values": values,
        "max_residual": residual,
        "chunked_vs_in_ram_max_delta": delta,
        "engine_vs_reference_max_delta": reference_delta,
    }


def mission_references() -> dict:
    from repro.casestudy.transient import vm_start_specs
    from repro.markov.transient import transient_distribution
    from repro.spn.ctmc_export import generator_matrix, initial_distribution_vector

    runner, _, graph = two_dc_graph(workloads.MISSION_MACHINES)
    measure = runner.availability_measure()
    minutes_pool = sorted(
        {workloads.MISSION_FIXED_MINUTES}.union(*workloads.MISSION_MINUTE_BANDS)
    )
    inputs = {
        "window_hours": workloads.MISSION_WINDOW_HOURS,
        "points": workloads.MISSION_POINTS,
    }
    times = workloads.mission_times(inputs)
    initial = initial_distribution_vector(graph)
    n = graph.number_of_states
    values, method_delta = {}, 0.0
    for minutes, spec in zip(minutes_pool, vm_start_specs(runner, minutes_pool)):
        scenario_graph = rerated(graph, spec.resolved_rates())
        generator = generator_matrix(scenario_graph)
        augmented = sparse.bmat(
            [[generator.T, None], [sparse.identity(n), sparse.csr_matrix((n, n))]],
            format="csr",
        )
        started = time.perf_counter()
        trajectory = sparse_linalg.expm_multiply(
            augmented,
            np.concatenate([initial, np.zeros(n)]),
            start=0.0,
            stop=times[-1],
            num=len(times),
            endpoint=True,
        )
        for hours, state in zip(times, trajectory):
            point_vector = transient_distribution(generator, initial, hours, 1e-13)
            method_delta = max(method_delta, float(np.abs(point_vector - state[:n]).max()))
            point = availability(scenario_graph, point_vector, measure)
            interval = (
                point
                if hours == 0.0
                else availability(scenario_graph, state[n:] / hours, measure)
            )
            values[workloads.mission_key(minutes, hours)] = [point, interval]
        print(
            f"mission {minutes:g} min: A({times[-1]:g} h) = {point!r}, "
            f"interval {interval!r} ({time.perf_counter() - started:.1f} s)",
            flush=True,
        )
    if method_delta > TRANSIENT_METHOD_DELTA:
        raise SystemExit(f"transient reference methods differ by {method_delta:.3e}")
    return {"values": values, "transient_method_max_delta": method_delta}


def grid_references() -> dict:
    from repro.casestudy.grid import scenario_case
    from repro.spn.ctmc_export import generator_matrix
    from repro.spn.reachability import (
        DEFAULT_MAX_TANGIBLE_MARKINGS,
        generate_tangible_reachability_graph,
    )

    parameters = workloads.grid_parameters()
    cases = [
        dict(kind="pair", pair=pair, machines=machines, backup=backup, alpha=alpha, years=years,
             ref=workloads.grid_pair_key(pair, machines, backup, alpha, years))
        for pair, (machines, backup), alpha, years in product(
            range(workloads.CITY_PAIR_COUNT),
            workloads.GRID_PAIR_DESIGNS,
            workloads.GRID_ALPHAS,
            workloads.GRID_YEARS,
        )
    ]
    cases += [
        dict(kind="mesh", datacenters=datacenters, machines=machines, transfer_hours=hours,
             alpha=workloads.FIG7_ALPHAS[0], years=years,
             ref=workloads.grid_mesh_key(datacenters, machines, hours, years))
        for (datacenters, machines), hours, years in product(
            workloads.GRID_MESHES, workloads.GRID_TRANSFER_HOURS, workloads.GRID_YEARS
        )
    ]
    cases += [
        dict(kind="single", city=workloads.GRID_SINGLE_SITES[0], years=years,
             ref=workloads.grid_single_key(years))
        for years in workloads.GRID_YEARS
    ]

    graphs: dict = {}
    values, residual = {}, 0.0
    large = LargeChainSolver()
    for case in cases:
        grid_case = scenario_case(workloads.grid_scenario(case), parameters=parameters)
        canonicalizer = grid_case.canonicalizer
        structure = (
            tuple(grid_case.net.place_names),
            tuple(grid_case.net.transition_names),
            case["kind"],
            case.get("machines"),
            case.get("backup"),
            case.get("datacenters"),
            None if canonicalizer is None else canonicalizer.args[0].cache_id,
        )
        if structure not in graphs:
            graphs[structure] = generate_tangible_reachability_graph(
                grid_case.net,
                max_states=DEFAULT_MAX_TANGIBLE_MARKINGS,
                canonicalize=None if canonicalizer is None else canonicalizer.build(),
            )
            print(f"grid structure {len(graphs)}: {graphs[structure].number_of_states} states",
                  flush=True)
        scenario_graph = rerated(graphs[structure], grid_case.full_rates())
        generator = generator_matrix(scenario_graph)
        vector = stationary(generator, large)
        residual = max(residual, true_residual(generator, vector))
        values[case["ref"]] = availability(scenario_graph, vector, grid_case.measures[0])
    return {"values": values, "max_residual": residual}


MAKERS = {
    "fig7_faithful": fig7_references,
    "mission_transient": mission_references,
    "design_grid": grid_references,
}


def main(names) -> int:
    import scipy

    for name in names or list(MAKERS):
        started = time.perf_counter()
        payload = MAKERS[name]()
        payload.update(
            workload=name,
            seconds=round(time.perf_counter() - started, 1),
            numpy=np.__version__,
            scipy=scipy.__version__,
        )
        path = HERE / "references" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(payload['values'])} references to {path}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
