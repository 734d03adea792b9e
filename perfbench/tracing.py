"""In-memory span tracing of one traced study, from outside the program.

``install`` wraps public functions and methods of each layer with a span
recorder (name, start, end, parent span, workload-operation id, attributes).
It patches module attributes in the traced child process only; the
program's files are not changed, and untraced runs never import this module.

Work done in grid pool workers is not visible to in-process wrappers; its
generation and queue-wait intervals are rebuilt from the timeline fields the
orchestrator returns in each ``GridGroupReport`` (``add_grid_report_spans``).

``layer_table`` and ``per_layer_metrics`` are pure functions over the span
list, so the parent process can also summarise a written trace.
"""

from __future__ import annotations

import functools
import resource
import threading
import time
from contextlib import contextmanager

#: Spans that do not explain where time went: the public entry-point calls a
#: study makes, and the grid's queue waits (which overlap other groups' work).
#: Trace coverage counts the wall time inside at least one *other* span.
NOT_COVERING = frozenset(
    {
        "grid.evaluate",
        "grid.run",
        "grid.queue_wait",
        "casestudy.transient",
        "batch.run",
        "batch.run_transient",
    }
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Thread-safe span recorder.

    Spans opened on a thread with no open span of its own (pool threads of
    the engine and the grid) take the main thread's innermost open span as
    parent, which is the call that is waiting for them.
    """

    def __init__(self, operation: str) -> None:
        self.operation = operation
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[dict] = []
        self._next_id = 0
        self.paused = 0

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attributes):
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        else:
            parent = self._main_stack[-1]["id"] if self._main_stack else None
        with self._lock:
            self._next_id += 1
            identifier = self._next_id
        record = {
            "id": identifier,
            "name": name,
            "parent": parent,
            "op": self.operation,
            "thread": threading.current_thread().name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": dict(attributes),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add(self, name: str, start: float, end: float, parent=None, **attributes) -> None:
        """Record a span measured elsewhere (e.g. in a pool worker)."""
        with self._lock:
            self._next_id += 1
            self.spans.append(
                {
                    "id": self._next_id,
                    "name": name,
                    "parent": parent,
                    "op": self.operation,
                    "thread": "pool-worker",
                    "start": start,
                    "end": end,
                    "attrs": dict(attributes),
                }
            )

    @contextmanager
    def suspended(self):
        """Run bookkeeping (residuals, fills) without recording spans."""
        with self._lock:
            self.paused += 1
        try:
            yield
        finally:
            with self._lock:
                self.paused -= 1

    def wrap(self, owner, attribute: str, name: str, after=None, before=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``before(args)`` returns attributes known before the call.
        ``after(record, result, args, kwargs)`` may add attributes once the
        call returned; it runs after the span closed and outside tracing.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return original(*args, **kwargs)
            with tracer.span(name, **(before(args) if before else {})) as record:
                result = original(*args, **kwargs)
            if after is not None:
                with tracer.suspended():
                    after(record, result, args, kwargs)
            return result

        setattr(owner, attribute, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark measures."""
    import numpy as np
    import scipy.sparse.linalg as sparse_linalg

    import repro.casestudy.grid as case_grid
    import repro.casestudy.transient as case_transient
    import repro.core.cloud_model as cloud_model
    import repro.engine.batch as batch
    import repro.engine.cache as cache
    import repro.engine.grid as grid
    import repro.markov.solvers as solvers
    import repro.symmetry.canonicalize as canonicalize
    from repro.engine.krylov import MatrixFreeSolver, ReusableSolver
    from repro.engine.measures import RewardMatrix
    from repro.statespace.chunked import ChunkedGraph

    # Entry points.
    tracer.wrap(case_grid, "evaluate_grid", "grid.evaluate")
    tracer.wrap(grid.ScenarioGridOrchestrator, "run", "grid.run")
    tracer.wrap(case_transient, "reproduce_transient", "casestudy.transient")
    tracer.wrap(batch.ScenarioBatchEngine, "run", "batch.run")
    tracer.wrap(batch.ScenarioBatchEngine, "run_transient", "batch.run_transient")

    # Model building.
    tracer.wrap(case_grid, "scenario_case", "core.build")
    tracer.wrap(cloud_model.CloudSystemModel, "build", "core.build")

    # Reachability generation and symmetry canonicalization.
    def graph_counts(record, graph, args, kwargs):
        record["attrs"]["states"] = int(graph.number_of_states)
        edges = getattr(graph, "edge_sources", None)
        if edges is not None:
            record["attrs"]["edges"] = int(edges.size)
        else:
            record["attrs"]["edges"] = int(sum(chunk.edge_count for chunk in graph.chunks))

    for module in (batch, grid):
        tracer.wrap(module, "generate_tangible_reachability_graph", "reachability.generate", graph_counts)
    for module in (batch, cache):
        tracer.wrap(module, "write_chunked_graph", "reachability.generate", graph_counts)

    original_build = canonicalize.build_canonicalizer

    def traced_build_canonicalizer(spec):
        canonicalizer = original_build(spec)
        batch_function = canonicalizer.batch

        def traced_batch(block):
            if tracer.paused:
                return batch_function(block)
            with tracer.span("symmetry.canonicalize", rows=int(len(block))):
                return batch_function(block)

        canonicalizer.batch = traced_batch
        return canonicalizer

    canonicalize.build_canonicalizer = traced_build_canonicalizer
    cloud_model.build_canonicalizer = traced_build_canonicalizer

    def group_order(record, canonicalizer, args, kwargs):
        if canonicalizer is not None:
            record["attrs"]["group_order"] = int(getattr(canonicalizer, "group_order", 1))

    tracer.wrap(cloud_model.CloudSystemModel, "symmetry_canonicalizer", "symmetry.build", group_order)

    # Planner, cache and shard I/O.
    def plan_counts(record, plan, args, kwargs):
        record["attrs"]["estimated_states"] = int(plan.estimated_states)
        record["attrs"]["representation"] = plan.representation

    tracer.wrap(grid, "plan_representation", "dispatch.plan", plan_counts)

    def load_result(record, graph, args, kwargs):
        record["attrs"]["hit"] = graph is not None
        if graph is not None:
            graph_counts(record, graph, args, kwargs)

    tracer.wrap(cache.TRGCache, "load", "cache.load", load_result)
    tracer.wrap(cache.TRGCache, "load_chunked", "cache.load", load_result)
    tracer.wrap(cache.TRGCache, "store", "cache.store")
    tracer.wrap(cache.TRGCache, "generate_chunked", "cache.store")
    tracer.wrap(grid, "fsync_file", "shard.write")
    tracer.wrap(grid, "replace_durably", "shard.write")

    # Solves: warm/cold, factorisation fill, GMRES iterations, true residual
    # ‖πQ‖∞ / ‖Q‖∞ of every returned vector.  The engine calls the solvers
    # with positional arguments: (edge rates, generator callback) for the
    # reusable solver, the rate vector for the matrix-free one.
    def residual_of(record, vector, generator) -> None:
        import scipy.sparse as sparse

        matrix = sparse.csr_matrix(generator)
        norm = float(abs(matrix).sum(axis=1).max())
        residual = float(np.abs(matrix.T @ np.asarray(vector)).max())
        record["attrs"]["residual"] = residual / norm if norm > 0 else residual
        record["attrs"]["rss_mb"] = _peak_rss_mb()

    def cold(args):
        return {"cold": args[0].preconditioner is None}

    def reusable_residual(record, vector, args, kwargs):
        residual_of(record, vector, args[2]())

    def matrix_free_residual(record, vector, args, kwargs):
        solver = args[0]
        graph = solver.graph
        rates = np.asarray(args[1]) if len(args) > 1 else graph.rate_vector
        exit_rates = graph.exit_rates(rates)
        balance = -exit_rates * vector
        for _, sources, targets, edge_rates in graph.edge_chunks(rates):
            balance += np.bincount(
                targets, weights=edge_rates * vector[sources], minlength=graph.number_of_states
            )
        norm = 2.0 * float(exit_rates.max())
        record["attrs"]["residual"] = float(np.abs(balance).max()) / norm if norm > 0 else 0.0
        record["attrs"]["rss_mb"] = _peak_rss_mb()

    def direct_residual(record, vector, args, kwargs):
        residual_of(record, vector, args[0])

    tracer.wrap(ReusableSolver, "solve", "solve.solve", reusable_residual, before=cold)
    tracer.wrap(MatrixFreeSolver, "solve", "solve.solve", matrix_free_residual, before=cold)
    tracer.wrap(solvers, "steady_state", "solve.solve", direct_residual, before=lambda args: {"cold": True})

    def factor_fill(record, factor, args, kwargs):
        # SuperLU's own count of the stored nonzeros of L plus U.
        record["attrs"]["fill"] = int(factor.nnz)
        record["attrs"]["n"] = int(factor.shape[0])

    tracer.wrap(sparse_linalg, "splu", "solve.factorize", factor_fill)
    tracer.wrap(sparse_linalg, "spilu", "solve.factorize", factor_fill)

    original_gmres = sparse_linalg.gmres

    def traced_gmres(*args, **kwargs):
        if tracer.paused:
            return original_gmres(*args, **kwargs)
        counter = [0]
        caller_callback = kwargs.pop("callback", None)

        def count(value):
            counter[0] += 1
            if caller_callback is not None:
                caller_callback(value)

        kwargs.setdefault("callback_type", "pr_norm")
        with tracer.span("solve.gmres") as record:
            result = original_gmres(*args, callback=count, **kwargs)
        record["attrs"]["iterations"] = counter[0]
        return result

    sparse_linalg.gmres = traced_gmres

    # Transient uniformization, measures, chunk reads.
    def transient_counts(record, result, args, kwargs):
        record["attrs"]["scenarios"] = int(args[3].shape[0])
        record["attrs"]["points"] = int(len(args[5]))

    tracer.wrap(batch, "transient_reward_block", "transient.block", transient_counts)
    tracer.wrap(RewardMatrix, "evaluate", "measures.evaluate")

    def read_bytes(record, array, args, kwargs):
        record["attrs"]["bytes"] = int(array.nbytes)

    tracer.wrap(ChunkedGraph, "chunk_array", "chunked.read", read_bytes)


def add_grid_report_spans(tracer: Tracer, groups: list) -> None:
    """Rebuild pool-worker generation and queue-wait spans from group reports.

    Report offsets count from the start of ``ScenarioGridOrchestrator.run``,
    which is the start of the traced ``grid.run`` span.  Edge counts come from
    the parent's cache load of the generated graph.
    """
    runs = [span for span in tracer.spans if span["name"] == "grid.run"]
    if not runs:
        return
    run = runs[-1]
    base = run["start"]
    loads = [
        span for span in tracer.spans if span["name"] == "cache.load" and span["attrs"].get("hit")
    ]
    for group in groups:
        if group["graph_source"].startswith("generated:pool"):
            finished = base + group["generate_finished_at"]
            load = next((span for span in loads if span["attrs"]["states"] == group["states"]), None)
            if load is not None:
                loads.remove(load)
            tracer.add(
                "reachability.generate",
                finished - group["generate_seconds"],
                finished,
                parent=run["id"],
                states=group["states"],
                edges=load["attrs"]["edges"] if load is not None else 0,
                source="GridGroupReport",
            )
        if group["queue_wait_seconds"] > 0:
            started = base + group["solve_started_at"]
            tracer.add(
                "grid.queue_wait",
                started - group["queue_wait_seconds"],
                started,
                parent=run["id"],
                source="GridGroupReport",
            )


# --- summaries (pure functions over spans) --------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        inner = [
            (max(start, span["start"]), min(end, span["end"]))
            for start, end in children.get(span["id"], [])
            if end > span["start"] and start < span["end"]
        ]
        result[span["id"]] = (span["end"] - span["start"]) - _union_length(inner)
    return result


def layer_table(spans: list, window: tuple) -> list:
    """Rows ``(span name, calls, self seconds, share of the window)``.

    Only spans inside the window (the timed study) are counted.
    """
    start, end = window
    inside = [span for span in spans if span["start"] >= start and span["end"] <= end]
    own = self_times(inside)
    rows: dict = {}
    for span in inside:
        calls, seconds = rows.get(span["name"], (0, 0.0))
        rows[span["name"]] = (calls + 1, seconds + own[span["id"]])
    duration = max(end - start, 1e-12)
    return sorted(
        ((name, calls, seconds, seconds / duration) for name, (calls, seconds) in rows.items()),
        key=lambda row: -row[2],
    )


def coverage(spans: list, window: tuple) -> float:
    """Share of the window inside at least one span that does work."""
    start, end = window
    intervals = [
        (max(span["start"], start), min(span["end"], end))
        for span in spans
        if span["name"] not in NOT_COVERING and span["end"] > start and span["start"] < end
    ]
    return _union_length(intervals) / max(end - start, 1e-12)


def per_layer_metrics(spans: list, window: tuple, study: dict, untraced_wall: float) -> dict:
    """Every per-layer metric of the traced study (see ``BENCHMARK.json``)."""
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}

    def named(name):
        return [span for span in spans if span["name"] == name]

    def outermost(name):
        result = []
        for span in named(name):
            parent = by_id.get(span["parent"])
            nested = False
            while parent is not None:
                if parent["name"] == name:
                    nested = True
                    break
                parent = by_id.get(parent["parent"])
            if not nested:
                result.append(span)
        return result

    def duration(items):
        return sum(span["end"] - span["start"] for span in items)

    def attr_values(items, key):
        return [span["attrs"][key] for span in items if key in span["attrs"]]

    solves = outermost("solve.solve")
    generations = named("reachability.generate")
    generate_s = duration(generations)
    states = sum(attr_values(generations, "states"))
    groups = study["groups"]
    counts = study["counts"]
    lumped = [group for group in groups if group.get("states_before_estimate")]
    if lumped:
        lumping = sum(group["states_before_estimate"] for group in lumped) / sum(
            group["states"] for group in lumped
        )
    else:
        lumping = max(attr_values(named("symmetry.build"), "group_order") or [1])
    plans = named("dispatch.plan")
    plans.sort(key=lambda span: span["start"])
    ratios = [
        plan["attrs"]["estimated_states"] / max(1, group["states"])
        for plan, group in zip(plans, groups)
    ]
    loads = named("cache.load")
    transient = named("transient.block")
    transient_points = sum(
        span["attrs"].get("scenarios", 0) * span["attrs"].get("points", 0) for span in transient
    )
    reads = named("chunked.read")
    cases = sum(group["cases"] for group in groups)
    study_wall = window[1] - window[0]
    return {
        "solve.cold_s": duration([span for span in solves if span["attrs"]["cold"]]),
        "solve.warm_s": duration([span for span in solves if not span["attrs"]["cold"]]),
        "solve.factorize_s": duration(named("solve.factorize")),
        "solve.lu_fill": max(attr_values(named("solve.factorize"), "fill") or [0]),
        "solve.gmres_iters": sum(attr_values(named("solve.gmres"), "iterations")),
        "solve.residual_max": max(attr_values(solves, "residual") or [0.0]),
        "solve.peak_rss_mb": max(attr_values(solves, "rss_mb") or [0.0]),
        "reachability.generate_s": generate_s,
        "reachability.states": states,
        "reachability.edges": sum(attr_values(generations, "edges")),
        "reachability.states_per_s": states / generate_s if generate_s > 0 else 0.0,
        "symmetry.canonicalize_s": duration(named("symmetry.canonicalize")),
        "symmetry.lumping_ratio": float(lumping),
        "core.build_s": duration(outermost("core.build")),
        "core.builds": len(outermost("core.build")),
        "grid.self_s": sum(own[span["id"]] for span in named("grid.evaluate") + named("grid.run")),
        "grid.queue_wait_s": sum(group.get("queue_wait_seconds", 0.0) for group in groups),
        "grid.groups": len(groups),
        "grid.dedupe_ratio": counts.get("deduped_cases", 0) / cases if cases else 0.0,
        "grid.retries": sum(
            group.get("generate_attempts", 1) - 1 + group.get("solve_attempts", 1) - 1
            for group in groups
        ),
        "shard.write_s": duration(named("shard.write")),
        "shard.bytes": counts.get("shard_bytes", 0),
        "dispatch.plan_s": duration(plans),
        "dispatch.est_state_ratio": max(ratios) if ratios else 0.0,
        "dispatch.chunked_groups": counts.get("chunked_groups", 0),
        "cache.load_s": duration(loads),
        "cache.store_s": sum(own[span["id"]] for span in named("cache.store")),
        "cache.hits": sum(1 for span in loads if span["attrs"].get("hit")),
        "cache.misses": sum(1 for span in loads if not span["attrs"].get("hit")),
        "cache.bytes": counts.get("cache_bytes", 0),
        "transient.s": duration(transient),
        "transient.s_per_point": duration(transient) / transient_points if transient_points else 0.0,
        "measures.s": duration(named("measures.evaluate")),
        "chunked.read_s": duration(reads),
        "chunked.bytes_read": sum(attr_values(reads, "bytes")),
        "chunked.chunks": len(reads),
        "trace.coverage": coverage(spans, window),
        "trace.overhead_s": study_wall - untraced_wall,
    }
