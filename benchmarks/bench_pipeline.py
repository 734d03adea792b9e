"""Benchmark E9 — work-stealing generate→solve pipeline + cross-case dedupe.

Two claims of the grid orchestrator's generate→solve coordinator are
measured against the same coordinator with a one-worker budget
(``jobs=1``: one generation at a time on a one-worker pool, at most one
solve alongside it) on the same cold grid (fresh throwaway cache both
times, persistent process pool shut down between the runs so neither
inherits the other's warm workers):

* **pipeline**: on the ~36-scenario mixed-structure grid, a multi-worker
  budget overlapping structure-graph generation with per-group solving must
  reach ≥ 1.5x over one worker on machines with at least 4 effective
  cores.  The per-group
  timeline (``generate_finished_at`` / ``solve_started_at`` offsets from
  run start) is recorded so the overlap is *verifiable*, not asserted: any
  group whose solve started before another group's generation finished is
  counted in ``overlap_observed``;
* **dedupe**: on an ablation-style grid where N−1 of N cases re-rate one
  structure with *identical* resolved rates (only the availability
  expression differs), exactly one stationary solve must happen — the
  outcome must report ``deduped_cases == N−1`` — and the deduped run must
  beat the non-deduped run on solve work.

Every multi-worker availability must match its one-worker counterpart below
1e-12, deduped or not.  On machines with fewer than 4 effective cores the
stages cannot physically overlap, so the speedup targets are recorded
honestly as measured and only the agreement/dedupe-count invariants are
enforced.

Stand-alone full runs write ``BENCH_pipeline.json`` next to the repo root;
``--quick`` runs a reduced grid as the CI smoke (no file written).
"""

import json
import sys
import tempfile
import time
from pathlib import Path

from repro.casestudy.grid import CaseStudyGrid, scenario_case
from repro.core import CaseStudyParameters
from repro.core.scenarios import CITY_PAIRS, DistributedScenario
from repro.engine import TRGCache
from repro.engine.dispatch import effective_cpu_count, peak_rss_bytes
from repro.engine.grid import GridCase, ScenarioGridOrchestrator
from repro.engine.parallel import shutdown_shared_pool
from repro.network.geo import RIO_DE_JANEIRO
from repro.spn.rewards import ProbabilityMeasure

#: Agreement demanded between multi-worker and one-worker availabilities.
MAX_DELTA = 1e-12

#: Required multi-worker speedup over one worker on >= MIN_CORES cores.
PIPELINE_SPEEDUP_FLOOR = 1.5
MIN_CORES = 4

REDUCED = CaseStudyParameters(required_running_vms=1)


def full_grid() -> CaseStudyGrid:
    """~36 scenarios over 9 structures (machines x backup x single site)."""
    return CaseStudyGrid(
        city_sets=(CITY_PAIRS[0], CITY_PAIRS[4], (RIO_DE_JANEIRO,)),
        alphas=(0.35, 0.45),
        disaster_years=(100.0, 300.0),
        machines_per_datacenter=(1, 2),
        backup=(True, False),
    )


def quick_grid() -> CaseStudyGrid:
    """Reduced CI smoke: 5 scenarios over 3 structures."""
    return CaseStudyGrid(
        city_sets=(CITY_PAIRS[0], (RIO_DE_JANEIRO,)),
        alphas=(0.35, 0.45),
        disaster_years=(100.0,),
        machines_per_datacenter=(1,),
        backup=(True, False),
    )


def grid_cases(grid: CaseStudyGrid):
    return [scenario_case(s, parameters=REDUCED) for s in grid.scenarios()]


def dedupe_cases(thresholds=(1, 2, 3, 4)) -> list[GridCase]:
    """N cases of one structure, N−1 rate-identical to the first.

    Every case re-rates the same two-data-center net with its *own full
    rate assignment* — which is identical across cases, because only the
    availability threshold ``k`` (an expression, not a rate) varies.  With
    dedupe the grid must solve exactly once and share the vector.
    """
    scenario = DistributedScenario(
        *CITY_PAIRS[0],
        alpha=0.35,
        disaster_mean_time_years=100.0,
        machines_per_datacenter=1,
    )
    model = scenario.build_model(REDUCED)
    net = model.build()
    return [
        GridCase(
            name=f"threshold_k{k}",
            net=net,
            measures=(
                ProbabilityMeasure(
                    "availability",
                    model.availability_expression(required_running_vms=k),
                ),
            ),
        )
        for k in thresholds
    ]


def run_grid(cases, *, dedupe: bool, workers: int):
    """One cold orchestrator pass; the shared pool is reset first."""
    shutdown_shared_pool()
    with tempfile.TemporaryDirectory(prefix="bench-pipeline-") as scratch:
        orchestrator = ScenarioGridOrchestrator(
            cache=TRGCache(scratch),
            jobs=workers,
            backend="auto",
            dedupe=dedupe,
        )
        started = time.perf_counter()
        outcome = orchestrator.run(cases)
        seconds = time.perf_counter() - started
    return outcome, seconds


def count_overlaps(outcome) -> int:
    """Groups whose solve started before some other group finished generating."""
    overlaps = 0
    for group in outcome.groups:
        for other in outcome.groups:
            if other is group:
                continue
            if group.solve_started_at < other.generate_finished_at:
                overlaps += 1
                break
    return overlaps


def max_availability_delta(a, b) -> float:
    by_name = {row.name: row for row in b.results}
    return max(
        abs(row.value("availability") - by_name[row.name].value("availability"))
        for row in a.results
    )


def run(quick: bool = False) -> int:
    cores = effective_cpu_count()
    workers = max(2, min(MIN_CORES, cores))
    grid = quick_grid() if quick else full_grid()
    cases = grid_cases(grid)
    print(f"grid: {len(cases)} scenario(s), {cores} effective core(s)")

    serial, serial_seconds = run_grid(cases, dedupe=False, workers=1)
    print(f"one worker            : {serial_seconds:7.2f}s")

    pipelined, pipeline_seconds = run_grid(cases, dedupe=True, workers=workers)
    speedup = serial_seconds / pipeline_seconds
    overlaps = count_overlaps(pipelined)
    print(
        f"{workers} workers (+dedupe)   : {pipeline_seconds:7.2f}s "
        f"({speedup:.2f}x vs one worker, {overlaps} group(s) overlapped)"
    )

    max_delta = max_availability_delta(pipelined, serial)
    print(f"max |Δavailability| = {max_delta:.2e}")

    # Dedupe section: N cases, N−1 rate-identical.
    ded = dedupe_cases()
    expected_dedupes = len(ded) - 1
    plain, plain_seconds = run_grid(ded, dedupe=False, workers=workers)
    deduped, dedupe_seconds = run_grid(ded, dedupe=True, workers=workers)
    dedupe_delta = max_availability_delta(deduped, plain)
    dedupe_speedup = plain_seconds / dedupe_seconds
    print(
        f"dedupe ablation grid  : {dedupe_seconds:7.2f}s vs {plain_seconds:7.2f}s "
        f"undeduped ({dedupe_speedup:.2f}x, {deduped.deduped_cases} of "
        f"{len(ded)} case(s) deduped, max |Δ| = {dedupe_delta:.2e})"
    )

    report = {
        "config": (
            f"{'reduced' if quick else 'full'} mixed-structure grid "
            f"({len(cases)} scenarios, {len(pipelined.groups)} structures)"
        ),
        "scenarios": len(cases),
        "structures": len(pipelined.groups),
        "effective_cores": cores,
        "workers": workers,
        "one_worker_seconds": round(serial_seconds, 3),
        "pipeline_seconds": round(pipeline_seconds, 3),
        "pipeline_speedup": round(speedup, 3),
        "max_delta": max_delta,
        "overlap_observed": overlaps,
        "groups": [
            {
                "key": group.key,
                "cases": group.cases,
                "states": group.number_of_states,
                "graph_source": group.graph_source,
                "backend": group.backend,
                "deduped_cases": group.deduped_cases,
                "timeline": group.timeline(),
            }
            for group in pipelined.groups
        ],
        "dedupe": {
            "cases": len(ded),
            "expected_deduped": expected_dedupes,
            "deduped_cases": deduped.deduped_cases,
            "undeduped_seconds": round(plain_seconds, 3),
            "deduped_seconds": round(dedupe_seconds, 3),
            "speedup": round(dedupe_speedup, 3),
            "max_delta": dedupe_delta,
        },
        "speedup_target": {
            "required": PIPELINE_SPEEDUP_FLOOR,
            "measured": round(speedup, 3),
            "met": speedup >= PIPELINE_SPEEDUP_FLOOR,
        },
    }
    if cores < MIN_CORES:
        report["speedup_target"]["note"] = (
            f"machine exposes {cores} effective core(s); generation and "
            f"solving cannot physically overlap, so the "
            f">= {PIPELINE_SPEEDUP_FLOOR}x target is only asserted on "
            f">= {MIN_CORES}-effective-core machines and the ratio above "
            f"is recorded as measured"
        )

    failures = []
    if max_delta >= MAX_DELTA:
        failures.append(
            f"{workers}-worker grid deviates from one worker by {max_delta:.2e} "
            f"(allowed {MAX_DELTA:.0e})"
        )
    if dedupe_delta >= MAX_DELTA:
        failures.append(
            f"deduped grid deviates from the undeduped grid by "
            f"{dedupe_delta:.2e} (allowed {MAX_DELTA:.0e})"
        )
    if deduped.deduped_cases != expected_dedupes:
        failures.append(
            f"dedupe grid reported {deduped.deduped_cases} deduped case(s), "
            f"expected {expected_dedupes}"
        )
    if cores >= MIN_CORES and not report["speedup_target"]["met"]:
        failures.append(
            f"{workers} workers reached only {speedup:.2f}x over one worker "
            f"(required {PIPELINE_SPEEDUP_FLOOR}x on a "
            f"{cores}-effective-core machine)"
        )

    if not quick:
        output = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
        report["peak_rss_bytes"] = peak_rss_bytes()
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK")
    return 0


# --- pytest-benchmark entry points ----------------------------------------


def bench_pipeline_matches_one_worker(benchmark):
    """Reduced grid at a multi-worker budget; agreement vs one worker."""
    cases = grid_cases(quick_grid())
    workers = max(2, min(MIN_CORES, effective_cpu_count()))
    serial, _ = run_grid(cases, dedupe=False, workers=1)

    def pipelined_run():
        outcome, _ = run_grid(cases, dedupe=True, workers=workers)
        return outcome

    outcome = benchmark.pedantic(pipelined_run, rounds=1, iterations=1)
    assert max_availability_delta(outcome, serial) < MAX_DELTA


if __name__ == "__main__":
    raise SystemExit(run(quick="--quick" in sys.argv))
