"""The pipeline engine: ordered stages, weekly ticks, checkpoints.

:class:`PipelineEngine` owns the run loop that ``run_scenario`` used to
hard-wire: it validates the stage composition up front (every declared
``requires`` key must be provided by an earlier stage), drives the
simulation clock week by week, times every stage tick into a
:class:`~repro.pipeline.metrics.PipelineMetrics` registry, and can
snapshot its entire state — stages, clock, payload — into a
:class:`Checkpoint` that a later process restores to resume the run
mid-way.  Snapshots lean on the simulation being pure picklable Python
state: no wall clock, no sockets, no threads.

The weekly loop must survive a hostile Internet: a stage tick that
raises is dead-lettered and the week goes on.  Stages that depend on
the failed stage's outputs are skipped and counted, and no tick
exception ever escapes :meth:`PipelineEngine.run`, so every checkpoint
falls between two weeks.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Any, Callable, List, Optional, Sequence, Set

from repro.obs import OBS
from repro.pipeline.context import QuarantineRecord, WeekContext
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.stage import Stage
from repro.sim.clock import SimClock

#: How far the clock advances per tick: the paper's sweeps are weekly.
WEEK = timedelta(weeks=1)


class StageGraphError(ValueError):
    """The stage composition is invalid (duplicate names, unmet deps)."""


@dataclass(frozen=True)
class Checkpoint:
    """A resumable snapshot of an engine between two weeks."""

    week_index: int
    at: datetime
    blob: bytes


def _validate(stages: Sequence[Stage]) -> None:
    seen: Set[str] = set()
    provided: Set[str] = set()
    for position, stage in enumerate(stages):
        if not stage.name:
            raise StageGraphError(f"stage at position {position} has no name")
        if stage.name in seen:
            raise StageGraphError(f"duplicate stage name {stage.name!r}")
        seen.add(stage.name)
        missing = [key for key in stage.requires if key not in provided]
        if missing:
            raise StageGraphError(
                f"stage {stage.name!r} requires {missing} but no earlier "
                f"stage provides them (provided so far: {sorted(provided)})"
            )
        provided.update(stage.provides)


class PipelineEngine:
    """Runs an ordered stage list over weekly simulated ticks.

    Parameters
    ----------
    stages:
        The composition, in execution order.  Validated immediately.
    clock:
        The simulation clock the engine advances; shared with the
        simulated world so all in-world timestamps stay coherent.
    payload:
        Arbitrary picklable object carried through checkpoints —
        ``run_scenario`` stores its :class:`ScenarioResult` here so a
        restored engine hands back the restored world.
    """

    def __init__(self, stages: Sequence[Stage], clock: SimClock, payload: Any = None):
        _validate(stages)
        self.stages: List[Stage] = list(stages)
        self.clock = clock
        self.payload = payload
        self.metrics = PipelineMetrics()
        self.week_index = 0
        #: Dead-letter log accumulated across the whole run: quarantined
        #: FQDNs from the sweep plus failed stage ticks.
        self.dead_letters: List[QuarantineRecord] = []
        # Register rows up front so the metrics table shows pipeline order.
        for stage in self.stages:
            self.metrics.stage(stage.name)

    def _tick_stage(self, stage: Stage, ctx: WeekContext) -> None:
        """One stage tick: timed, and dead-lettered if it raises."""
        started = time.perf_counter()
        cpu_started = time.process_time()
        try:
            with OBS.tracer.span(
                f"stage.{stage.name}", sim=ctx.at, week=ctx.week_index
            ):
                items = stage.tick(ctx)
        except Exception as exc:
            self.metrics.record_failure(
                stage.name, time.perf_counter() - started,
                time.process_time() - cpu_started,
            )
            ctx.quarantine_item("<stage-tick>", f"{type(exc).__name__}: {exc}")
        else:
            self.metrics.record_tick(
                stage.name, time.perf_counter() - started, int(items or 0),
                time.process_time() - cpu_started,
            )

    def step(self) -> WeekContext:
        """Run one weekly tick through every stage, advance the clock."""
        ctx = WeekContext(at=self.clock.now, week_index=self.week_index)
        for stage in self.stages:
            ctx.current_stage = stage.name
            missing = [key for key in stage.requires if key not in ctx.outputs]
            if missing:
                # An upstream stage dead-lettered this week: skip, and
                # record why this stage could not run.
                self.metrics.record_skip(stage.name)
                ctx.quarantine_item(
                    "<stage-skip>", f"missing upstream outputs {missing}"
                )
                continue
            self._tick_stage(stage, ctx)
        for record in ctx.quarantine:
            self.metrics.record_quarantine(record.stage)
        self.dead_letters.extend(ctx.quarantine)
        if OBS.enabled:
            # Week boundary: snapshot the counter registry so the
            # series holds this week's deltas.  After the stage loop —
            # every stage's counters have landed by now — and before the
            # clock advances, so the stamp is the week that just ran.
            OBS.series.snapshot(self.week_index, ctx.at, OBS.metrics)
        self.week_index += 1
        self.clock.advance(WEEK)
        return ctx

    def run(
        self,
        max_weeks: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[[Checkpoint], None]] = None,
    ) -> int:
        """Run until the clock's end (or ``max_weeks`` more ticks).

        ``checkpoint_every=N`` snapshots the engine after every N weeks
        and hands the :class:`Checkpoint` to ``on_checkpoint``; restore
        with :meth:`PipelineEngine.restore` to resume.  Returns the
        number of weeks ticked by this call.
        """
        ran = 0
        while not self.clock.finished():
            if max_weeks is not None and ran >= max_weeks:
                return ran
            self.step()
            ran += 1
            if (
                checkpoint_every
                and on_checkpoint is not None
                and self.week_index % checkpoint_every == 0
                and not self.clock.finished()
            ):
                on_checkpoint(self.checkpoint())
        return ran

    # -- checkpoint / resume ---------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Snapshot the entire engine state (stages, clock, payload)."""
        return Checkpoint(
            week_index=self.week_index,
            at=self.clock.now,
            blob=pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL),
        )

    @staticmethod
    def restore(checkpoint: Checkpoint) -> "PipelineEngine":
        """Rebuild a mid-run engine from a checkpoint; ``run()`` resumes it."""
        engine = pickle.loads(checkpoint.blob)
        if not isinstance(engine, PipelineEngine):  # pragma: no cover - corruption
            raise StageGraphError("checkpoint does not contain a PipelineEngine")
        return engine

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        names = ", ".join(stage.name for stage in self.stages)
        return f"PipelineEngine(week={self.week_index}, stages=[{names}])"
