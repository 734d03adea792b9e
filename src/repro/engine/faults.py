"""Deterministic fault-injection harness and self-healing policy types.

The execution layer (persistent worker pool, TRG cache, grid orchestrator)
recovers from worker deaths, torn cache entries and hung tasks — but those
failures are rare and timing-dependent, so without help the recovery paths
would be the least-tested code in the repo.  This module makes the failures
*reproducible*: a seeded :class:`FaultPlan` describes exactly which fault
fires at which site, the hook points consult the installed plan at
deterministic parent-side decision points, and a test or chaos benchmark can
replay the same failure schedule on every run.

Supported fault kinds (:data:`FAULT_KINDS`):

* ``worker_kill`` — the worker process SIGKILLs itself before running the
  task (the pool observes an abrupt death: ``BrokenProcessPool``);
* ``task_exception`` — the task raises :class:`InjectedFaultError` instead
  of running;
* ``slow_task`` — the task sleeps ``delay_seconds`` before running
  (exercises deadlines and the pipeline watchdog);
* ``corrupt_cache_read`` — the cache entry is physically truncated before
  the read, so the *real* corruption-handling path runs;
* ``shm_attach_failure`` — creating/attaching the shared-memory segment
  fails (exercises the thread-backend degradation of the batch engine).

Sites are matched with :func:`fnmatch.fnmatch` patterns, so a spec with
``site="generate*"`` covers both pool generation tasks (site ``generate``)
and the in-process fallback (site ``generate.inprocess``).

The plan is installed process-wide (:func:`install` / :func:`clear` /
the :func:`injected` context manager) or via the ``REPRO_FAULT_PLAN``
environment variable (a JSON document, or ``@/path/to/plan.json``), which is
how the CLI and the CI chaos smoke inject faults into a subprocess.  All
firing decisions happen in the *parent* process — the only worker-side
behaviour is the picklable :func:`faulted_call` wrapper the pool wraps a
doomed task in — so a plan never needs to pickle.

Alongside the injection harness live the two policy/record types of the
self-healing layer: :class:`RetryPolicy` (retry counts, exponential backoff,
per-kind deadlines, pool restart budget) and :class:`FailureRecord` (the
structured quarantine record a task that exhausted its retries leaves behind
instead of aborting the run).
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Iterator, Optional, Sequence

#: Canonical names of the injectable fault kinds.
WORKER_KILL = "worker_kill"
TASK_EXCEPTION = "task_exception"
SLOW_TASK = "slow_task"
CORRUPT_CACHE_READ = "corrupt_cache_read"
SHM_ATTACH_FAILURE = "shm_attach_failure"

FAULT_KINDS = (
    WORKER_KILL,
    TASK_EXCEPTION,
    SLOW_TASK,
    CORRUPT_CACHE_READ,
    SHM_ATTACH_FAILURE,
)

#: Environment variable carrying a JSON fault plan (or ``@/path`` to one).
FAULT_PLAN_ENVIRONMENT_VARIABLE = "REPRO_FAULT_PLAN"

#: Hook-point sites of the availability service layer (:mod:`repro.service`):
#: the journal append of the durable job store (fires before the write is
#: acknowledged), the HTTP submission handler, and the worker-side start of
#: one job run.  The chaos harness tortures the service through the same
#: plans it uses against the pool — ``task_exception`` raises at the site,
#: ``slow_task`` sleeps there first (see :func:`perturb`).
SERVICE_STORE_APPEND = "service.store.append"
SERVICE_HANDLE_SUBMIT = "service.handle.submit"
SERVICE_RUN_JOB = "service.run.job"


class InjectedFaultError(RuntimeError):
    """An artificial task failure raised by the fault-injection harness.

    Deliberately *not* an :class:`~repro.exceptions.AnalysisError`: injected
    faults must travel the same generic-exception recovery paths a real
    crash would, not any analysis-specific handling.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault of a :class:`FaultPlan`.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        site: :func:`fnmatch.fnmatch` pattern over the hook-point site names
            (``"generate"``, ``"solve"``, ``"solve.group"``, ``"cache.load"``,
            ``"sweep.plan"``, …); ``"*"`` matches every site of the kind.
        after: number of matching events to let pass before arming.
        count: how many times the spec fires once armed.
        probability: chance an armed event actually fires (drawn from the
            plan's seeded RNG, so runs stay reproducible).
        delay_seconds: sleep length of ``slow_task`` faults.
    """

    kind: str
    site: str = "*"
    after: int = 0
    count: int = 1
    probability: float = 1.0
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not isinstance(self.site, str) or not self.site.strip():
            raise ValueError(
                f"fault 'site' must be a non-empty fnmatch pattern over the "
                f"hook-point names (e.g. 'generate*', 'service.*'), got "
                f"{self.site!r}"
            )
        if not isinstance(self.count, int) or isinstance(self.count, bool):
            raise ValueError(f"fault 'count' must be an integer, got {self.count!r}")
        if not isinstance(self.after, int) or isinstance(self.after, bool):
            raise ValueError(f"fault 'after' must be an integer, got {self.after!r}")
        if self.count < 0:
            raise ValueError(f"fault 'count' must be non-negative, got {self.count}")
        if self.after < 0:
            raise ValueError(f"fault 'after' must be non-negative, got {self.after}")
        if not isinstance(self.probability, (int, float)) or not (
            0.0 <= self.probability <= 1.0
        ):
            raise ValueError(
                f"fault 'probability' must be a number within [0, 1], got "
                f"{self.probability!r}"
            )
        if not isinstance(self.delay_seconds, (int, float)) or self.delay_seconds < 0:
            raise ValueError(
                f"fault 'delay_seconds' must be a non-negative number, got "
                f"{self.delay_seconds!r}"
            )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "site": self.site,
            "after": self.after,
            "count": self.count,
            "probability": self.probability,
            "delay_seconds": self.delay_seconds,
        }


class FaultPlan:
    """A seeded, thread-safe schedule of faults to inject into one run.

    Hook points report candidate events via :meth:`fire`; the plan walks its
    specs in order, counts matching events per spec, and returns the first
    armed spec that fires (consuming one of its charges) or ``None``.  Every
    fired fault is appended to :attr:`events` so tests and the chaos
    benchmark can assert the schedule actually executed.
    """

    def __init__(self, faults: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.specs = tuple(faults)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._seen = [0] * len(self.specs)
        self._fired = [0] * len(self.specs)
        self._lock = threading.Lock()
        #: Fired faults, in firing order: ``{"kind", "site", "spec"}`` dicts.
        self.events: list[dict] = []

    def fire(self, kind: str, site: str) -> Optional[FaultSpec]:
        """Consume one charge of the first matching armed spec, if any."""
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.kind != kind or not fnmatch(site, spec.site):
                    continue
                self._seen[index] += 1
                if self._seen[index] <= spec.after:
                    continue
                if self._fired[index] >= spec.count:
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                self._fired[index] += 1
                self.events.append({"kind": kind, "site": site, "spec": index})
                return spec
            return None

    def fired(self, kind: Optional[str] = None) -> int:
        """Number of faults fired so far (optionally of one kind)."""
        with self._lock:
            if kind is None:
                return len(self.events)
            return sum(1 for event in self.events if event["kind"] == kind)

    def exhausted(self) -> bool:
        """Whether every spec has fired all of its charges."""
        with self._lock:
            return all(
                fired >= spec.count for spec, fired in zip(self.specs, self._fired)
            )

    # --- (de)serialisation --------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "faults": [spec.as_dict() for spec in self.specs]}
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse ``{"seed": 0, "faults": [{"kind": ..., ...}, ...]}``.

        A bare JSON array is accepted as the ``faults`` list.  Every
        malformed input raises :class:`ValueError` with an actionable
        message naming the offending spec by its position.
        """
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"fault plan is not valid JSON: {error}") from error
        if isinstance(document, list):
            document = {"faults": document}
        if not isinstance(document, dict):
            raise ValueError(
                f"a fault plan must be a JSON object or array, got "
                f"{type(document).__name__}"
            )
        entries = document.get("faults", [])
        if not isinstance(entries, list):
            raise ValueError(
                f"'faults' must be an array of fault specs, got "
                f"{type(entries).__name__}"
            )
        allowed = {
            "kind", "site", "after", "count", "probability", "delay_seconds"
        }
        specs = []
        for position, entry in enumerate(entries, start=1):
            if not isinstance(entry, dict):
                raise ValueError(
                    f"fault spec #{position} must be a JSON object, got "
                    f"{type(entry).__name__}"
                )
            unknown = sorted(set(map(str, entry)) - allowed)
            if unknown:
                raise ValueError(
                    f"fault spec #{position} has unknown field(s) {unknown}; "
                    f"allowed fields: {sorted(allowed)}"
                )
            if "kind" not in entry:
                raise ValueError(
                    f"fault spec #{position} needs a 'kind' "
                    f"(one of {FAULT_KINDS})"
                )
            try:
                specs.append(FaultSpec(**{str(k): v for k, v in entry.items()}))
            except ValueError as error:
                raise ValueError(f"fault spec #{position}: {error}") from error
        try:
            seed = int(document.get("seed", 0))
        except (TypeError, ValueError) as error:
            raise ValueError(
                f"fault plan 'seed' must be an integer, got "
                f"{document.get('seed')!r}"
            ) from error
        return cls(specs, seed=seed)


# --- process-wide installation ----------------------------------------------

_active_plan: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as this process's active fault plan (None clears)."""
    global _active_plan
    _active_plan = plan


def clear() -> None:
    install(None)


def active() -> Optional[FaultPlan]:
    """The installed plan, lazily picking up ``REPRO_FAULT_PLAN`` if set."""
    global _active_plan
    if _active_plan is None:
        _active_plan = plan_from_environment()
    return _active_plan


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scoped installation: ``with injected(plan): ...`` restores on exit."""
    global _active_plan
    previous = _active_plan
    _active_plan = plan
    try:
        yield plan
    finally:
        _active_plan = previous


def plan_from_environment() -> Optional[FaultPlan]:
    """Parse ``$REPRO_FAULT_PLAN`` (JSON text, or ``@/path`` to a file)."""
    raw = os.environ.get(FAULT_PLAN_ENVIRONMENT_VARIABLE, "").strip()
    if not raw:
        return None
    if raw.startswith("@"):
        with open(raw[1:]) as handle:
            raw = handle.read()
    return FaultPlan.from_json(raw)


def perturb(site: str) -> None:
    """Consult the active plan at one parent-side hook point.

    The in-process counterpart of :func:`faulted_call`: a matching
    ``slow_task`` spec sleeps ``delay_seconds`` here (before any exception),
    and a matching ``task_exception`` spec raises
    :class:`InjectedFaultError`.  Used by the grid orchestrator's
    parent-side sites (``generate.inprocess``, ``solve.group``) and the
    availability service's sites (:data:`SERVICE_STORE_APPEND`,
    :data:`SERVICE_HANDLE_SUBMIT`, :data:`SERVICE_RUN_JOB`); a no-op when no
    plan is installed.
    """
    plan = active()
    if plan is None:
        return
    spec = plan.fire(SLOW_TASK, site)
    if spec is not None:
        time.sleep(max(0.0, spec.delay_seconds))
    if plan.fire(TASK_EXCEPTION, site) is not None:
        raise InjectedFaultError(f"injected task exception at site {site!r}")


# --- worker-side wrapper ----------------------------------------------------


def faulted_call(kind: str, delay_seconds: float, fn, /, *args, **kwargs):
    """Run ``fn`` under one injected fault (picklable pool-task wrapper).

    The parent decides *that* a fault fires (so the schedule is
    deterministic); this wrapper makes it *happen* inside the worker, where
    a real failure of that kind would occur.
    """
    if kind == WORKER_KILL:
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == SLOW_TASK:
        time.sleep(max(0.0, delay_seconds))
    elif kind == TASK_EXCEPTION:
        raise InjectedFaultError("injected task exception")
    return fn(*args, **kwargs)


# --- self-healing policy ----------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the self-healing grid execution.

    Attributes:
        max_retries: additional attempts after the first failure of a task
            (a task runs at most ``1 + max_retries`` times before the final
            in-process fallback / quarantine).
        backoff_seconds: base sleep before the first retry.
        backoff_factor: multiplier applied per further retry.
        max_backoff_seconds: backoff ceiling.
        generate_deadline_seconds: grid watchdog deadline for one
            structure-graph generation task; ``None`` disables the watchdog.
        solve_deadline_seconds: deadline for one wave of process-pool solve
            chunks (see :class:`~repro.engine.parallel.SweepScheduler`);
            ``None`` disables it.
        pool_restart_budget: how many times one grid run may rebuild the
            persistent worker pool after abrupt worker deaths before it
            stops trusting the pool and degrades to in-process execution.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 2.0
    generate_deadline_seconds: Optional[float] = None
    solve_deadline_seconds: Optional[float] = None
    pool_restart_budget: int = 3

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return min(
            self.max_backoff_seconds,
            self.backoff_seconds * self.backoff_factor ** max(0, attempt - 1),
        )


@dataclass(frozen=True)
class FailureRecord:
    """Structured account of one quarantined grid task.

    A task (generation or solve of one structure group) that failed
    ``1 + max_retries`` times is quarantined: its cases are dropped from the
    result frame and this record — stage, affected cases, attempt count and
    the final error — lands in :attr:`GridOutcome.failures` (and in
    ``grid-failures.jsonl`` next to the checkpoint shards), so a caller gets
    every solvable result plus a machine-readable reason for the rest.
    """

    stage: str  # "plan" | "generate" | "solve"
    group: str
    cases: tuple[str, ...]
    case_indices: tuple[int, ...]
    attempts: int
    error: str
    error_type: str
    metadata: dict = field(default_factory=dict)

    def as_record(self) -> dict:
        return {
            "stage": self.stage,
            "group": self.group,
            "cases": list(self.cases),
            "case_indices": list(self.case_indices),
            "attempts": self.attempts,
            "error": self.error,
            "error_type": self.error_type,
            "metadata": dict(self.metadata),
        }
