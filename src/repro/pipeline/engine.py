"""The pipeline engine: ordered stages, weekly ticks, checkpoints.

:class:`PipelineEngine` owns the run loop that ``run_scenario`` used to
hard-wire: it validates the stage composition up front (every declared
``requires`` key must be provided by an earlier stage), drives the
simulation clock week by week, times every stage tick into a
:class:`~repro.pipeline.metrics.PipelineMetrics` registry, and can
snapshot its entire state — stages, clock, RNG streams, payload — into
a :class:`Checkpoint` that a later process restores to resume the run
mid-way.  Snapshots lean on the simulation being pure picklable Python
state: no wall clock, no sockets, no threads.

The engine degrades gracefully: a stage tick that raises can be retried
per a :class:`~repro.faults.RetryPolicy`, and in ``degrade`` mode a
tick that exhausts its retries is dead-lettered (the week continues;
stages depending on the failed stage's outputs are skipped and counted)
instead of aborting the run.  In ``raise`` mode the failing stage is
recorded before the exception propagates, so a checkpoint taken after
the failure resumes *mid-week from that stage* rather than re-running
the completed stages of the week.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Any, Callable, List, Optional, Sequence, Set

from repro.faults.retry import RetryPolicy
from repro.obs import OBS
from repro.pipeline.context import QuarantineRecord, WeekContext
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.stage import Stage
from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams


class StageGraphError(ValueError):
    """The stage composition is invalid (duplicate names, unmet deps)."""


@dataclass(frozen=True)
class Checkpoint:
    """A resumable snapshot of a mid-run engine.

    ``failed_stage`` names the stage whose tick was in flight when the
    snapshot was taken (``None`` for clean between-week checkpoints);
    restoring such a checkpoint resumes the interrupted week at that
    stage, with the outputs of already-completed stages preserved.
    """

    week_index: int
    at: datetime
    blob: bytes
    failed_stage: Optional[str] = None

    def size_bytes(self) -> int:
        return len(self.blob)


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
    streams:
        The run's RNG streams, exposed to stages via the context.
    payload:
        Arbitrary picklable object carried through checkpoints —
        ``run_scenario`` stores its :class:`ScenarioResult` here so a
        restored engine hands back the restored world.
    stage_retry:
        Retry budget for a stage tick that raises (default: none —
        first exception is final).
    on_stage_error:
        ``"raise"`` (default) propagates a tick exception after
        recording the failed stage for mid-week resume; ``"degrade"``
        dead-letters the tick and continues the week — no exception
        ever escapes :meth:`run`.
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        clock: SimClock,
        streams: RngStreams,
        payload: Any = None,
        week_step: timedelta = timedelta(weeks=1),
        stage_retry: Optional[RetryPolicy] = None,
        on_stage_error: str = "raise",
    ):
        _validate(stages)
        if on_stage_error not in ("raise", "degrade"):
            raise ValueError(
                f"on_stage_error must be 'raise' or 'degrade', got {on_stage_error!r}"
            )
        self.stages: List[Stage] = list(stages)
        self.clock = clock
        self.streams = streams
        self.payload = payload
        self.week_step = week_step
        self.stage_retry = stage_retry if stage_retry is not None else RetryPolicy.none()
        self.on_stage_error = on_stage_error
        self.metrics = PipelineMetrics()
        self.week_index = 0
        #: Dead-letter log accumulated across the whole run: quarantined
        #: FQDNs from the sweep plus failed stage ticks.
        self.dead_letters: List[QuarantineRecord] = []
        self._setup_done = False
        self._finish_done = False
        # Mid-week resume state: the interrupted week's context and the
        # index of the stage to re-run (set when a tick raises in
        # ``raise`` mode, preserved through checkpoints).
        self._inflight_ctx: Optional[WeekContext] = None
        self._resume_stage_index = 0
        # Register rows up front so the metrics table shows pipeline order.
        for stage in self.stages:
            self.metrics.stage(stage.name)

    # -- lifecycle -------------------------------------------------------

    def _context(self) -> WeekContext:
        return WeekContext(
            at=self.clock.now, week_index=self.week_index, streams=self.streams
        )

    def _run_setup(self) -> None:
        ctx = self._context()
        for stage in self.stages:
            ctx.current_stage = stage.name
            started = time.perf_counter()
            stage.setup(ctx)
            self.metrics.record_setup(stage.name, time.perf_counter() - started)
        self._setup_done = True

    def _run_finish(self) -> None:
        ctx = self._context()
        for stage in self.stages:
            ctx.current_stage = stage.name
            started = time.perf_counter()
            stage.finish(ctx)
            self.metrics.record_finish(stage.name, time.perf_counter() - started)
        self._finish_done = True

    def _tick_stage(self, stage: Stage, ctx: WeekContext, index: int) -> None:
        """One stage tick with retry/degrade semantics."""
        attempt = 0
        while True:
            attempt += 1
            started = time.perf_counter()
            cpu_started = time.process_time()
            try:
                with OBS.tracer.span(
                    f"stage.{stage.name}", sim=ctx.at, week=ctx.week_index,
                    attempt=attempt,
                ):
                    items = stage.tick(ctx)
            except Exception as exc:
                elapsed = time.perf_counter() - started
                cpu = time.process_time() - cpu_started
                if attempt < self.stage_retry.max_attempts:
                    self.metrics.record_retry(stage.name, elapsed, cpu)
                    continue
                if self.on_stage_error == "raise":
                    # Record where the week broke so a checkpoint taken
                    # now resumes from this stage, not from stage 0.
                    self._inflight_ctx = ctx
                    self._resume_stage_index = index
                    raise
                self.metrics.record_failure(stage.name, elapsed, cpu)
                ctx.quarantine_item(
                    "<stage-tick>", f"{type(exc).__name__}: {exc}"
                )
                return
            else:
                elapsed = time.perf_counter() - started
                self.metrics.record_tick(
                    stage.name, elapsed, int(items or 0),
                    time.process_time() - cpu_started,
                )
                return

    def step(self) -> WeekContext:
        """Run one weekly tick through every stage, advance the clock.

        If a previous :meth:`step` was interrupted mid-week (a stage
        tick raised in ``raise`` mode), this call resumes that week at
        the failed stage with the completed stages' outputs intact.
        """
        if not self._setup_done:
            self._run_setup()
        if self._inflight_ctx is not None:
            ctx = self._inflight_ctx
            start_index = self._resume_stage_index
            self._inflight_ctx = None
            self._resume_stage_index = 0
        else:
            ctx = self._context()
            start_index = 0
        for index, stage in enumerate(self.stages):
            if index < start_index:
                continue
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
            self._tick_stage(stage, ctx, index)
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
        self.clock.advance(self.week_step)
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
        if self._setup_done and not self._finish_done:
            self._run_finish()
        return ran

    # -- checkpoint / resume ---------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Snapshot the entire engine state (stages, clock, RNG, payload).

        Taken after a mid-week failure (``raise`` mode), the snapshot
        carries the interrupted week's context and failed-stage index,
        so the restored engine re-runs only the failed stage onward.
        """
        failed_stage = (
            self.stages[self._resume_stage_index].name
            if self._inflight_ctx is not None
            else None
        )
        return Checkpoint(
            week_index=self.week_index,
            at=self.clock.now,
            blob=pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL),
            failed_stage=failed_stage,
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
