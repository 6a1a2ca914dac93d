"""Declarative analysis-task registry and its in-process executor.

Every Section 4–6 analysis behind the paper's figures used to run
inside one monolithic string-builder; this module makes the analysis
tier a first-class, observable stage.  An :class:`AnalysisTask` names
one pure analysis — a function of the finished
:class:`~repro.core.scenario.ScenarioResult` (plus the payloads of
declared upstream tasks) — and an :class:`AnalysisRegistry` holds them
in a fixed order that doubles as the topological order of the task
graph (dependencies must be registered first).  :func:`run_analyses`
runs the registry in that order, in this process.

Failures are isolated per task: a task that raises degrades to an
error outcome (one-line deterministic summary plus the full traceback
for diagnostics) and everything downstream of it is marked skipped —
one broken analysis costs its report section, never the report.

Observability: every task runs under an ``analysis.<name>`` span and
bumps ``analysis.<name>.{ok,failed,skipped}`` counter series.

The analyses are offline measurements over the finished world, so a
run leaves that world as it found it.  Fault injection is suppressed
for its duration (drawing from the fault streams here would make task
outputs depend on which analyses ran), and the resolver's passive-DNS
feed is detached: an analysis that resolves a name would otherwise add
sightings to the feed the report reads.
"""

from __future__ import annotations

import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import OBS, cpu_seconds_now


@dataclass(frozen=True)
class AnalysisTask:
    """One declarative paper analysis.

    ``run`` must be pure with respect to the scenario result — it may
    read anything but mutate nothing — and return a payload (usually
    one of the analysis dataclasses).  ``deps`` names upstream tasks
    whose payloads are passed in; ``inputs`` documents which result
    components the task reads.
    """

    name: str
    run: Callable[..., object]
    inputs: Tuple[str, ...] = ()
    deps: Tuple[str, ...] = ()


class AnalysisRegistry:
    """An ordered, validated collection of analysis tasks.

    Registration order is the execution order; dependencies must
    already be registered (which makes every registry a topologically
    sorted DAG by construction — cycles cannot be expressed).
    """

    def __init__(self, tasks: Sequence[AnalysisTask] = ()):
        self._tasks: List[AnalysisTask] = []
        self._by_name: Dict[str, AnalysisTask] = {}
        for task in tasks:
            self.register(task)

    def register(self, task: AnalysisTask) -> AnalysisTask:
        if task.name in self._by_name:
            raise ValueError(f"duplicate analysis task {task.name!r}")
        for dep in task.deps:
            if dep not in self._by_name:
                raise ValueError(
                    f"task {task.name!r} depends on {dep!r}, which is not "
                    "registered yet (dependencies must be registered first)"
                )
        self._by_name[task.name] = task
        self._tasks.append(task)
        return task

    @property
    def tasks(self) -> Tuple[AnalysisTask, ...]:
        return tuple(self._tasks)

    def names(self) -> List[str]:
        return [task.name for task in self._tasks]

    def get(self, name: str) -> AnalysisTask:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[AnalysisTask]:
        return iter(self._tasks)


@dataclass
class AnalysisOutcome:
    """What one task produced: a payload, or an isolated failure."""

    task: str
    payload: object = None
    #: One-line deterministic failure summary (``ExcType: message``),
    #: ``None`` on success.  This is what renderers and the JSON export
    #: show.
    error: Optional[str] = None
    #: Full traceback for diagnostics; never rendered into the report.
    error_detail: Optional[str] = None
    wall_ms: float = 0.0
    #: CPU ms burned by the task (wall-class data, excluded from
    #: determinism diffs like ``wall_ms``).
    cpu_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class AnalysisRun:
    """All outcomes of one engine run, in registry order."""

    outcomes: List[AnalysisOutcome]
    wall_seconds: float = 0.0
    _index: Dict[str, AnalysisOutcome] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index = {outcome.task: outcome for outcome in self.outcomes}

    def outcome(self, name: str) -> AnalysisOutcome:
        return self._index[name]

    def payload(self, name: str) -> object:
        return self._index[name].payload

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def failed(self) -> List[AnalysisOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]


# -- single-task execution -------------------------------------------------


def _execute_task(
    task: AnalysisTask, result, deps: Dict[str, object]
) -> AnalysisOutcome:
    """Run one task with span + counter instrumentation, never raising."""
    started = time.perf_counter()
    cpu0 = cpu_seconds_now()
    try:
        with OBS.tracer.span(f"analysis.{task.name}"):
            payload = task.run(result, deps)
    except Exception as error:  # isolation: one broken analysis != no report
        wall_ms = (time.perf_counter() - started) * 1000.0
        cpu_ms = (cpu_seconds_now() - cpu0) * 1000.0
        if OBS.enabled:
            OBS.metrics.inc(f"analysis.{task.name}.failed")
            OBS.metrics.inc("analysis.tasks_failed")
        return AnalysisOutcome(
            task=task.name,
            error=f"{type(error).__name__}: {error}",
            error_detail=traceback.format_exc(),
            wall_ms=wall_ms,
            cpu_ms=cpu_ms,
        )
    wall_ms = (time.perf_counter() - started) * 1000.0
    cpu_ms = (cpu_seconds_now() - cpu0) * 1000.0
    if OBS.enabled:
        OBS.metrics.inc(f"analysis.{task.name}.ok")
        OBS.metrics.inc("analysis.tasks_ok")
    return AnalysisOutcome(
        task=task.name, payload=payload, wall_ms=wall_ms, cpu_ms=cpu_ms
    )


def _skip_outcome(task: AnalysisTask, failed_dep: str) -> AnalysisOutcome:
    if OBS.enabled:
        OBS.metrics.inc(f"analysis.{task.name}.skipped")
        OBS.metrics.inc("analysis.tasks_skipped")
    return AnalysisOutcome(
        task=task.name,
        error=f"SkippedAnalysis: upstream analysis {failed_dep!r} failed",
    )


def _failed_dep(task: AnalysisTask, done: Dict[str, AnalysisOutcome]) -> Optional[str]:
    for dep in task.deps:
        outcome = done.get(dep)
        if outcome is not None and not outcome.ok:
            return dep
    return None


def _dep_payloads(task: AnalysisTask, done: Dict[str, AnalysisOutcome]) -> Dict[str, object]:
    return {dep: done[dep].payload for dep in task.deps}


# -- the engine ------------------------------------------------------------


def run_analyses(
    result, registry: Optional[AnalysisRegistry] = None
) -> AnalysisRun:
    """Execute a task registry over one finished scenario, in order."""
    if registry is None:
        from repro.analysis.tasks import default_registry

        registry = default_registry()
    plan = getattr(result, "fault_plan", None)
    suppress = plan.suppressed() if plan is not None else nullcontext()
    started = time.perf_counter()
    done: Dict[str, AnalysisOutcome] = {}
    with suppress, _feed_detached(result):
        for task in registry:
            failed_dep = _failed_dep(task, done)
            if failed_dep is not None:
                done[task.name] = _skip_outcome(task, failed_dep)
                continue
            done[task.name] = _execute_task(task, result, _dep_payloads(task, done))
    return AnalysisRun(
        outcomes=list(done.values()), wall_seconds=time.perf_counter() - started
    )


@contextmanager
def _feed_detached(result) -> Iterator[None]:
    """Detach the finished world's passive-DNS feed from its resolver."""
    resolver = getattr(getattr(result, "internet", None), "resolver", None)
    if resolver is None:
        yield
        return
    feed, resolver.passive_dns = resolver.passive_dns, None
    try:
        yield
    finally:
        resolver.passive_dns = feed

