"""Graceful degradation, mid-week resume and chaos-run determinism."""

from datetime import timedelta

import pytest

from repro.core.export import dataset_to_json
from repro.core.scenario import ScenarioConfig, build_scenario, run_scenario
from repro.faults.plan import FaultConfig
from repro.faults.retry import RetryPolicy
from repro.pipeline import PipelineEngine, Stage
from repro.sim.clock import DEFAULT_START, SimClock
from repro.sim.rng import RngStreams
from tests.fakes import FunctionStage


def _clock(weeks: int) -> SimClock:
    return SimClock(DEFAULT_START, DEFAULT_START + timedelta(weeks=weeks))


def _engine(stages, weeks=3, **kwargs) -> PipelineEngine:
    return PipelineEngine(stages, _clock(weeks), RngStreams(1), **kwargs)


class _BoomStage(Stage):
    """Raises on configured week indices (picklable, unlike a lambda)."""

    name = "boom"
    provides = ("boom-output",)

    def __init__(self, fail_weeks=(), fail_times_per_week=1):
        self._fail_weeks = set(fail_weeks)
        self._fail_times = fail_times_per_week
        self._failures_this_week = {}
        self.ticks = 0

    def tick(self, ctx):
        self.ticks += 1
        done = self._failures_this_week.get(ctx.week_index, 0)
        if ctx.week_index in self._fail_weeks and done < self._fail_times:
            self._failures_this_week[ctx.week_index] = done + 1
            raise RuntimeError(f"boom in week {ctx.week_index}")
        ctx.put("boom-output", ctx.week_index)
        return 1


class _RecorderStage(Stage):
    """Consumes boom-output; records which weeks it actually ran."""

    name = "recorder"
    requires = ("boom-output",)

    def __init__(self):
        self.ran_weeks = []

    def tick(self, ctx):
        self.ran_weeks.append(ctx.week_index)
        return 1


# -- degrade mode ---------------------------------------------------------


def test_degrade_mode_dead_letters_and_completes_the_run():
    boom = _BoomStage(fail_weeks=(1,))
    recorder = _RecorderStage()
    engine = _engine([boom, recorder], weeks=4, on_stage_error="degrade")
    assert engine.run() == 4  # no exception escapes
    # Week 1 produced a dead-lettered tick and a skipped downstream stage.
    items = [(r.stage, r.item) for r in engine.dead_letters]
    assert ("boom", "<stage-tick>") in items
    assert ("recorder", "<stage-skip>") in items
    assert recorder.ran_weeks == [0, 2, 3]
    assert engine.metrics.stage("boom").failures == 1
    assert engine.metrics.stage("recorder").skips == 1
    assert sum(row.quarantined for row in engine.metrics.stages()) == 2


def test_degrade_mode_records_exception_reason():
    engine = _engine([_BoomStage(fail_weeks=(0,))], weeks=1,
                     on_stage_error="degrade")
    engine.run()
    (record,) = engine.dead_letters
    assert record.week_index == 0
    assert "RuntimeError" in record.reason
    assert "boom in week 0" in record.reason


def test_stage_retry_recovers_without_dead_letter():
    boom = _BoomStage(fail_weeks=(1,), fail_times_per_week=1)
    engine = _engine(
        [boom, _RecorderStage()], weeks=3,
        stage_retry=RetryPolicy.standard(2), on_stage_error="degrade",
    )
    assert engine.run() == 3
    assert engine.dead_letters == []
    assert engine.metrics.stage("boom").retries == 1
    assert engine.metrics.stage("boom").failures == 0
    # The retried tick succeeded, so every week ticked through.
    assert engine.metrics.stage("recorder").ticks == 3


def test_invalid_error_mode_rejected():
    with pytest.raises(ValueError, match="on_stage_error"):
        _engine([_BoomStage()], on_stage_error="explode")


# -- raise mode: mid-week checkpoint / resume -----------------------------


class _CountingStage(Stage):
    """Counts its ticks per week (picklable state)."""

    provides = ()

    def __init__(self, name):
        self.name = name
        self.ticks_by_week = {}

    def tick(self, ctx):
        self.ticks_by_week[ctx.week_index] = (
            self.ticks_by_week.get(ctx.week_index, 0) + 1
        )
        return 1


def test_checkpoint_after_failure_resumes_mid_week_at_failed_stage():
    before = _CountingStage("before")
    boom = _BoomStage(fail_weeks=(2,))
    after = _CountingStage("after")
    engine = _engine([before, boom, after], weeks=5, on_stage_error="raise")
    with pytest.raises(RuntimeError, match="boom in week 2"):
        engine.run()
    checkpoint = engine.checkpoint()
    assert checkpoint.failed_stage == "boom"
    assert checkpoint.week_index == 2  # the interrupted week

    restored = PipelineEngine.restore(checkpoint)
    assert restored.run() == 3  # weeks 2, 3, 4
    r_before, r_boom, r_after = restored.stages
    # The completed stage of the interrupted week did NOT re-run...
    assert r_before.ticks_by_week[2] == 1
    # ...while the failed stage re-ran (original attempt + resumed one)
    # and the downstream stage ran exactly once for every week.
    assert r_after.ticks_by_week == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}
    assert restored.week_index == 5


def test_clean_checkpoint_has_no_failed_stage():
    engine = _engine([_CountingStage("only")], weeks=3)
    engine.step()
    checkpoint = engine.checkpoint()
    assert checkpoint.failed_stage is None
    restored = PipelineEngine.restore(checkpoint)
    assert restored.run() == 2


class _Producer(Stage):
    name = "producer"
    provides = ("value",)

    def tick(self, ctx):
        ctx.put("value", f"week-{ctx.week_index}")
        return 1


class _Consumer(Stage):
    name = "consumer"
    requires = ("value",)

    def __init__(self):
        self.seen = []

    def tick(self, ctx):
        self.seen.append(ctx.get("value"))
        return 1


def test_resumed_week_preserves_completed_outputs():
    boom = _BoomStage(fail_weeks=(1,))
    boom.requires = ("value",)
    engine = _engine([_Producer(), boom, _Consumer()], weeks=2,
                     on_stage_error="raise")
    with pytest.raises(RuntimeError):
        engine.run()
    restored = PipelineEngine.restore(engine.checkpoint())
    restored.run()
    # The consumer saw the ORIGINAL week-1 producer output after resume.
    assert restored.stages[2].seen == ["week-0", "week-1"]


# -- chaos runs end to end ------------------------------------------------


def _chaos_config(seed=42, fault_seed=777, weeks=10) -> ScenarioConfig:
    config = ScenarioConfig.tiny(seed=seed)
    config.weeks = weeks
    config.faults = FaultConfig.chaos(0.08, seed=fault_seed)
    config.monitor.retry = RetryPolicy.standard(3)
    return config


def test_chaos_run_is_deterministic():
    a = run_scenario(_chaos_config())
    b = run_scenario(_chaos_config())
    assert dataset_to_json(a.dataset) == dataset_to_json(b.dataset)
    assert a.dead_letters == b.dead_letters
    assert a.internet.client.retries_total == b.internet.client.retries_total
    assert a.fault_plan.stats.injected == b.fault_plan.stats.injected
    assert a.fault_plan.stats.total > 0  # the storm actually happened


def test_chaos_run_never_raises_and_quarantines_unreachable_fqdns():
    result = run_scenario(_chaos_config(weeks=8))
    assert result.weeks_run == 8
    # Retries happened; whatever still failed went to quarantine with a
    # transient status recorded in the reason.
    assert result.internet.client.retries_total > 0
    for record in result.dead_letters:
        assert record.stage == "monitor-sweep"
        assert "retries exhausted" in record.reason


def test_faults_disabled_is_byte_identical_to_no_fault_plan():
    baseline = run_scenario(ScenarioConfig.tiny(seed=9))
    quiet = ScenarioConfig.tiny(seed=9)
    quiet.faults = FaultConfig()  # explicit but disabled
    quiet_result = run_scenario(quiet)
    assert dataset_to_json(baseline.dataset) == dataset_to_json(quiet_result.dataset)
    assert quiet_result.fault_plan is None
    assert quiet_result.dead_letters == []


def test_fault_seed_pins_weather_independently():
    # Same fault seed, different world seeds: both run to completion and
    # the fault decision streams are seeded identically (the worlds
    # differ, so consumption differs — but construction must not).
    a = build_scenario(_chaos_config(seed=1))
    b = build_scenario(_chaos_config(seed=2))
    plan_a, plan_b = a.payload.fault_plan, b.payload.fault_plan
    assert plan_a is not None and plan_b is not None
    assert plan_a._dns.getstate() == plan_b._dns.getstate()


def test_scenario_engine_uses_degrade_mode():
    engine = build_scenario(_chaos_config())
    assert engine.on_stage_error == "degrade"
    assert engine.stage_retry.max_attempts >= 1
