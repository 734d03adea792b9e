"""The repository's benchmark: one availability study per run, every metric checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload design_grid --seed 1 --seconds 45 --trace 0

Workloads are defined in ``workloads.py``; ``BENCHMARK.json`` lists them with
the metrics.  The load is a closed loop with one client that issues one
batch study and waits for it.  A run starts one fresh child process, which
sets up once (imports, inputs, cache warming) and then keeps starting studies
while less than ``--seconds`` of study time has passed; the run reports the
median study.  Peak RSS is read in that fresh process after its first
study, and a hang is killed by a timeout and counted as failed.  Four
set-up-only children follow, so ``setup_s`` is a median of five.

Settings the program would otherwise read from the host are pinned here:
the worker count, the memory budget, a private TRG cache directory per
child, one BLAS thread per process, and no ``REPRO_*`` variable from the
environment (so ``REPRO_FAULT_PLAN`` is unset).

Every result row is checked: present, finite, within [0, 1], and within
1e-9 of the stored reference (``references/``, made by ``references.py``
through solver paths independent of the engine's).  A child that crashes,
times out or leaves a ``repro_sweep*`` shared-memory segment behind fails
all of its rows.

``--trace 1`` runs one untraced and one traced child.  The traced child
records spans around the public calls of each layer (``tracing.py``),
writes them as JSONL under ``.perfbench/traces/``, and the run prints a
per-layer self-time table and the per-layer metrics instead of the
end-to-end ones.  The last line of standard output is always the JSON
result object.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".perfbench"

#: Worker count of every study.  One, not the host's two cores: with two
#: workers the wall time of design_grid spread 0.21 (IQR / median over ten
#: seeds) on a 2-vCPU host, against 0.06 with one.  The grid still overlaps
#: pool generation with solving.
JOBS = 1
#: Memory budget of the planner: 4 GiB.  Under it the N=5 mesh of
#: ``design_grid`` (estimated 5.1 GB in RAM, 1.6 GB chunked) is routed to the
#: chunked representation and every other group stays in RAM.
MEMORY_BUDGET = 4 << 30
#: Agreement demanded between a result row and its stored reference.
TOLERANCE = 1e-9
#: Set-ups a run measures; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: A run must finish well inside the 180 s a run may take.
RUN_LIMIT_SECONDS = 170.0
#: Shared-memory segment prefix of the sweep scheduler.
SEGMENT_PREFIX = "repro_sweep"

# --- child process ---------------------------------------------------------------


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children (µs clock)."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def child_main(config_path: str) -> int:
    """Set up once, run studies for the given seconds, write the record.

    Runs in a fresh process.  Every study builds a fresh runner or grid and
    gets its own empty study directory; the persistent worker pool is shut
    down after each study, so each starts the way the first one did and its
    workers' CPU time is counted.
    """
    config = json.loads(Path(config_path).read_text())
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[config["workload"]]
    inputs = workload.inputs(config["seed"])
    tracer = None
    if config["trace"]:
        import tracing

        tracer = tracing.Tracer(f"{workload.name}/seed={config['seed']}")
        tracing.install(tracer)
    context = Context(**config["context"], study_dir="")
    if tracer is not None:
        with tracer.span("setup"):
            state = workload.setup(inputs, context)
    else:
        state = workload.setup(inputs, context)
    setup_seconds = time.perf_counter() - PROCESS_START

    import numpy
    import scipy

    record = {
        "setup_s": setup_seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "effective_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "studies": [],
    }
    if config["setup_only"]:
        Path(config["output"]).write_text(json.dumps(record))
        return 0

    from repro.engine import parallel
    from repro.engine.cache import TRGCache
    from repro.engine.dispatch import peak_rss_bytes

    first_start = time.perf_counter()
    while not record["studies"] or time.perf_counter() - first_start < config["seconds"]:
        study_dir = Path(config["output"]).parent / f"study-{len(record['studies']) + 1}"
        study_dir.mkdir()
        context.study_dir = str(study_dir)
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        if tracer is not None:
            with tracer.span("study"):
                output = workload.study(inputs, state, context)
        else:
            output = workload.study(inputs, state, context)
        ended = time.perf_counter()
        parallel.shutdown_shared_pool()
        cpu_after = cpu_seconds()
        if not record["studies"]:
            # ru_maxrss only grows, so the run's peak is read after its first
            # study (set-up included); later studies add samples of time only.
            record["peak_rss_mb"] = peak_rss_bytes() / 2**20
        output.counts["cache_bytes"] = TRGCache(output.cache_dir).total_size_bytes()
        output.counts["shard_bytes"] = sum(
            path.stat().st_size for path in study_dir.rglob("grid-*") if path.is_file()
        )
        if tracer is not None:
            with tracer.suspended():
                workload.after(inputs, state, output)
        else:
            workload.after(inputs, state, output)
        record["studies"].append(
            {
                "wall_s": ended - started,
                "cpu_s": cpu_after - cpu_before,
                "rows": output.rows,
                "counts": output.counts,
                "groups": output.groups,
            }
        )
        if tracer is not None:
            import tracing

            tracing.add_grid_report_spans(tracer, output.groups)
            record["spans"] = tracer.spans
            record["window"] = [started, ended]
            break
    Path(config["output"]).write_text(json.dumps(record))
    return 0


# --- parent process --------------------------------------------------------------


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref:"):
            return text
        reference = text.split(None, 1)[1]
        path = ROOT / ".git" / reference
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + reference):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def shm_segments() -> set:
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(SEGMENT_PREFIX)}
    except OSError:
        return set()


def child_environment(cache_dir: Path, scratch: Path) -> dict:
    environment = {
        name: value for name, value in os.environ.items() if not name.startswith("REPRO_")
    }
    environment.update(
        PYTHONPATH=str(SOURCE),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(cache_dir),
        TMPDIR=str(scratch),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return environment


class Runner:
    """Spawns the children of one run and keeps their records."""

    def __init__(self, workload: str, seed: int, work: Path, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = started
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def spawn(self, seconds: float = 0.0, setup_only: bool = False, trace: bool = False) -> dict:
        """Run one child; its record, or a record naming why it failed.

        The child keeps starting studies while less than ``seconds`` of study
        time has passed (at least one; exactly one when traced).
        """
        self.count += 1
        directory = self.work / f"child-{self.count}"
        cache_dir, scratch = directory / "cache", directory / "tmp"
        for path in (cache_dir, scratch):
            path.mkdir(parents=True)
        output = directory / "record.json"
        config = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": seconds,
            "trace": trace,
            "setup_only": setup_only,
            "output": str(output),
            "context": {"jobs": JOBS, "memory_budget": MEMORY_BUDGET, "cache_dir": str(cache_dir)},
        }
        config_path = directory / "config.json"
        config_path.write_text(json.dumps(config))
        segments_before = shm_segments()
        timeout = max(1.0, RUN_LIMIT_SECONDS - self.elapsed())
        launched = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--child", str(config_path)],
            env=child_environment(cache_dir, scratch),
            stdout=sys.stderr,
            start_new_session=True,
        )
        error = None
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            error = f"timed out after {timeout:.0f} s"
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
            else:
                # Kill anything the child left running in its session.
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        duration = time.perf_counter() - launched
        record = {}
        if error is None and process.returncode != 0:
            error = f"exited with code {process.returncode}"
        if error is None:
            try:
                record = json.loads(output.read_text())
            except (OSError, ValueError) as problem:
                error = f"wrote no readable record ({problem})"
        leaked = sorted(shm_segments() - segments_before)
        if leaked:
            error = f"left shared-memory segments behind: {leaked}"
        shutil.rmtree(directory, ignore_errors=True)
        record.update(duration_s=duration, setup_only=setup_only, trace=trace, error=error)
        return record


def check_rows(record: dict, expected: dict, references: dict) -> tuple:
    """``(attempted, failed, reasons)`` over one child's studies.

    A failed child fails every row it was to produce (one study's worth).
    """
    if record.get("error"):
        return len(expected), len(expected), [record["error"]]
    attempted, failed, reasons = 0, 0, []
    for study in record["studies"]:
        rows = study["rows"]
        attempted += len(expected)
        for row, reference_key in expected.items():
            reason = row_problem(rows.get(row), references.get(reference_key))
            if reason is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"{row}: {reason}")
    return attempted, failed, reasons


def row_problem(value, target):
    """Why one row fails, or ``None``."""
    if value is None:
        return "missing"
    values = value if isinstance(value, list) else [value]
    targets = target if isinstance(target, list) else [target]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return f"non-finite {values}"
    if not all(0.0 <= v <= 1.0 for v in values):
        return f"outside [0, 1]: {values}"
    if target is None:
        return "no stored reference"
    delta = max(abs(v - t) for v, t in zip(values, targets))
    if delta > TOLERANCE:
        return f"off the reference by {delta:.3e}"
    return None


def declared_units(kind: str) -> dict:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` list."""
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declaration[kind]}


def load_references(workload: str) -> dict:
    path = HERE / "references" / f"{workload}.json"
    try:
        return json.loads(path.read_text())["values"]
    except (OSError, ValueError, KeyError):
        return {}


def parse_arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def write_output(name: str, payload: str) -> Path:
    path = OUTPUT / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(payload)
    return path


def main(argv=None) -> int:
    arguments = parse_arguments(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SOURCE / 'repro'})", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(arguments.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {arguments.workload!r}; "
            f"choose one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    inputs = workload.inputs(arguments.seed)
    expected = workload.rows(inputs)
    references = load_references(workload.name)
    stamp = f"{workload.name}-seed{arguments.seed}-trace{arguments.trace}-{os.getpid()}"
    work = OUTPUT / "work" / stamp
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload.name, arguments.seed, work, time.perf_counter())
    records = []
    try:
        if arguments.trace:
            records.append(runner.spawn())
            records.append(runner.spawn(trace=True))
        else:
            records.append(runner.spawn(seconds=arguments.seconds))
            # Set-up-only children while the run's time limit allows them.
            while (
                not records[-1]["error"]
                and len(records) < SETUP_SAMPLES
                and runner.elapsed() + 2 * records[0]["setup_s"] < RUN_LIMIT_SECONDS
            ):
                records.append(runner.spawn(setup_only=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (OUTPUT / "work").rmdir()
        except OSError:
            pass

    attempted = failed = 0
    for index, record in enumerate(records, 1):
        rows, bad, reasons = check_rows(record, expected, references)
        attempted += rows
        failed += bad
        state = "ok" if not bad else f"{bad} failed: {'; '.join(reasons)}"
        label = " (traced)" if record["trace"] else " (set-up only)" if record["setup_only"] else ""
        print(
            f"child {index}{label}: {record['duration_s']:.2f} s, "
            f"{len(record.get('studies', []))} studies, {rows} rows, {state}"
        )
    good = [record for record in records if not record.get("error")]
    studies = [study for record in good for study in record["studies"]]
    if not studies or (arguments.trace and len(good) < 2):
        print("perfbench: no study completed; no metrics to report", file=sys.stderr)
        return 1

    first = good[0]
    environment = {
        "workload": workload.name,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "git": git_revision(),
        "python": first["python"],
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "effective_cores": first["effective_cores"],
        "cpu_count": first["cpu_count"],
        "jobs": JOBS,
        "memory_budget_bytes": MEMORY_BUDGET,
        "blas_threads": 1,
        "inputs": inputs,
    }
    print(
        "environment: "
        + ", ".join(f"{key}={environment[key]}" for key in list(environment)[:-1])
    )
    print(f"counts: {json.dumps(studies[0]['counts'], sort_keys=True)}")
    for group in studies[0]["groups"]:
        summary = {
            key: group.get(key)
            for key in (
                "cases",
                "states",
                "representation",
                "graph_source",
                "backend",
                "planner_estimated_bytes",
                "planner_estimated_states",
                "deduped_cases",
            )
            if key in group
        }
        print(f"group: {json.dumps(summary, sort_keys=True)}")
    print(f"fail_rate: {failed / attempted:.6f} ({failed} of {attempted} rows)")

    if arguments.trace:
        import tracing

        untraced, traced = records
        spans, window = traced["spans"], tuple(traced["window"])
        trace_path = write_output(
            f"traces/{workload.name}-seed{arguments.seed}.jsonl",
            "".join(json.dumps(span, sort_keys=True) + "\n" for span in spans),
        )
        print(f"trace: {len(spans)} spans written to {trace_path.relative_to(ROOT)}")
        print(
            "self time per span name inside the traced study; shares pass 100% where "
            "spans overlap (parallel work, grid queue waits)"
        )
        print(f"{'span':28s} {'calls':>7s} {'self_s':>10s} {'share':>7s}")
        for name, calls, seconds, share in tracing.layer_table(spans, window):
            print(f"{name:28s} {calls:7d} {seconds:10.4f} {share:7.1%}")
        values = tracing.per_layer_metrics(
            spans, window, traced["studies"][0], untraced["studies"][0]["wall_s"]
        )
        print(
            f"trace.coverage {values['trace.coverage']:.1%} of the traced study "
            f"({1 - values['trace.coverage']:.1%} outside every layer span); "
            f"trace.overhead_s {values['trace.overhead_s']:.3f}"
        )
        kind = "per_layer"
    else:
        values = {
            "wall_s": statistics.median(study["wall_s"] for study in studies),
            "results_per_s": statistics.median(
                len(study["rows"]) / study["wall_s"] for study in studies
            ),
            "cpu_s": statistics.median(study["cpu_s"] for study in studies),
            "peak_rss_mb": statistics.median(
                record["peak_rss_mb"] for record in good if record["studies"]
            ),
            "setup_s": statistics.median(record["setup_s"] for record in good),
        }
        walls = sorted(study["wall_s"] for study in studies)
        tail = ""
        if len(walls) >= 20:
            # The highest percentile with at least ten studies beyond it.
            tail = f", p{100 * (len(walls) - 10) // len(walls)} {walls[-11]:.6g} s"
        print(f"wall_s over {len(walls)} studies: median {values['wall_s']:.6g} s{tail}")
        kind = "end_to_end"
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in declared_units(kind).items()
    }
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    summary = dict(
        environment,
        fail_rate=failed / attempted,
        result=result,
        records=[
            dict(
                {key: value for key, value in record.items() if key not in ("spans", "studies")},
                studies=[
                    {key: value for key, value in study.items() if key != "rows"}
                    for study in record.get("studies", [])
                ],
            )
            for record in records
        ],
    )
    write_output(f"records/{stamp}.json", json.dumps(summary, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        sys.exit(child_main(sys.argv[2]))
    sys.exit(main())
