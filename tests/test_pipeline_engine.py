"""Unit tests for the stage-based pipeline engine."""

import pytest

from repro.core.export import dataset_to_json
from repro.core.scenario import ScenarioConfig, build_scenario
from repro.pipeline import (
    MissingOutputError,
    PipelineEngine,
    PipelineMetrics,
    Stage,
    StageGraphError,
    WeekContext,
)
from repro.sim.clock import DEFAULT_START, SimClock
from repro.sim.rng import RngStreams
from datetime import timedelta

from tests.fakes import FunctionStage


def _clock(weeks: int) -> SimClock:
    return SimClock(DEFAULT_START, DEFAULT_START + timedelta(weeks=weeks))


def _engine(stages, weeks=3):
    return PipelineEngine(stages, _clock(weeks), RngStreams(1))


# -- composition validation ---------------------------------------------------


def test_stages_run_in_declared_order_every_week():
    calls = []
    stages = [
        FunctionStage("alpha", lambda ctx: calls.append(("alpha", ctx.week_index))),
        FunctionStage("beta", lambda ctx: calls.append(("beta", ctx.week_index))),
    ]
    engine = _engine(stages, weeks=2)
    assert engine.run() == 2
    assert calls == [
        ("alpha", 0), ("beta", 0),
        ("alpha", 1), ("beta", 1),
    ]


def test_duplicate_stage_names_rejected():
    stages = [
        FunctionStage("same", lambda ctx: None),
        FunctionStage("same", lambda ctx: None),
    ]
    with pytest.raises(StageGraphError, match="duplicate"):
        _engine(stages)


def test_unnamed_stage_rejected():
    class Nameless(Stage):
        def tick(self, ctx):
            return None

    with pytest.raises(StageGraphError, match="no name"):
        _engine([Nameless()])


def test_unmet_dependency_rejected_at_construction():
    consumer = FunctionStage(
        "consumer", lambda ctx: ctx.get("missing"), requires=("missing",)
    )
    with pytest.raises(StageGraphError, match="requires.*missing"):
        _engine([consumer])


def test_dependency_satisfied_by_earlier_stage_is_accepted():
    producer = FunctionStage(
        "producer", lambda ctx: ctx.put("x", ctx.week_index), provides=("x",)
    )
    seen = []
    consumer = FunctionStage(
        "consumer", lambda ctx: seen.append(ctx.get("x")), requires=("x",)
    )
    _engine([producer, consumer], weeks=3).run()
    assert seen == [0, 1, 2]


def test_dependency_on_later_stage_rejected():
    producer = FunctionStage("producer", lambda ctx: ctx.put("x", 1), provides=("x",))
    consumer = FunctionStage("consumer", lambda ctx: ctx.get("x"), requires=("x",))
    with pytest.raises(StageGraphError):
        _engine([consumer, producer])


# -- context ------------------------------------------------------------------


def test_outputs_cleared_between_weeks():
    def sometimes_put(ctx):
        if ctx.week_index == 0:
            ctx.put("x", "stale")

    observed = []
    stages = [
        FunctionStage("producer", sometimes_put, provides=("x",)),
        FunctionStage("reader", lambda ctx: observed.append(ctx.has("x"))),
    ]
    _engine(stages, weeks=2).run()
    assert observed == [True, False]


def test_missing_output_names_reader_stage():
    ctx = WeekContext(at=DEFAULT_START, week_index=0, streams=RngStreams(1))
    ctx.current_stage = "reader"
    with pytest.raises(MissingOutputError, match="reader"):
        ctx.get("never-published")


# -- metrics ------------------------------------------------------------------


def test_metrics_count_ticks_and_items():
    stages = [
        FunctionStage("counted", lambda ctx: 5),
        FunctionStage("uncounted", lambda ctx: None),
    ]
    engine = _engine(stages, weeks=4)
    engine.run()
    counted = engine.metrics.stage("counted")
    assert counted.ticks == 4
    assert counted.items_processed == 20
    assert counted.wall_time >= 0.0
    assert engine.metrics.stage("uncounted").items_processed == 0
    # Rows come back in pipeline order.
    assert [row[0] for row in engine.metrics.rows()] == ["counted", "uncounted"]


def test_metrics_record_setup_and_finish():
    events = []
    stage = FunctionStage(
        "lifecycle",
        lambda ctx: events.append("tick"),
        setup=lambda ctx: events.append("setup"),
        finish=lambda ctx: events.append("finish"),
    )
    engine = _engine([stage], weeks=2)
    engine.run()
    assert events == ["setup", "tick", "tick", "finish"]
    row = engine.metrics.stage("lifecycle")
    assert row.setup_time >= 0.0 and row.finish_time >= 0.0
    assert row.total_time >= row.wall_time


def test_partial_run_does_not_finish_stages():
    events = []
    stage = FunctionStage(
        "lifecycle",
        lambda ctx: None,
        finish=lambda ctx: events.append("finish"),
    )
    engine = _engine([stage], weeks=5)
    engine.run(max_weeks=2)
    assert events == []
    engine.run()
    assert events == ["finish"]


def test_metrics_registry_reusable_standalone():
    metrics = PipelineMetrics()
    metrics.record_tick("solo", 0.5, items=10)
    metrics.record_tick("solo", 0.5, items=30)
    row = metrics.stage("solo")
    assert row.ticks == 2
    assert row.items_processed == 40
    assert row.mean_tick_ms == pytest.approx(500.0)
    assert row.items_per_second == pytest.approx(40.0)


# -- checkpoint / resume ------------------------------------------------------


def test_checkpoint_resume_roundtrip_on_tiny_scenario():
    config = ScenarioConfig.tiny()
    config.weeks = 12

    engine = build_scenario(config)
    engine.run(max_weeks=6)
    checkpoint = engine.checkpoint()
    assert checkpoint.week_index == 6
    engine.run()
    full = dataset_to_json(engine.payload.dataset, indent=2)

    resumed = PipelineEngine.restore(checkpoint)
    assert resumed.week_index == 6
    resumed.run()
    assert resumed.week_index == 12
    assert dataset_to_json(resumed.payload.dataset, indent=2) == full
    assert (
        resumed.payload.ground_truth.hijacked_fqdns()
        == engine.payload.ground_truth.hijacked_fqdns()
    )


class _NoopStage(Stage):
    """Module-level (hence picklable) stage for checkpoint tests."""

    name = "noop"

    def tick(self, ctx):
        return None


def test_run_emits_periodic_checkpoints():
    checkpoints = []
    engine = _engine([_NoopStage()], weeks=10)
    engine.run(checkpoint_every=3, on_checkpoint=checkpoints.append)
    # Snapshots after weeks 3, 6 and 9 — never after the final week.
    assert [cp.week_index for cp in checkpoints] == [3, 6, 9]
    assert all(len(cp.blob) > 0 for cp in checkpoints)
