"""Graceful degradation and chaos-run determinism."""

from datetime import timedelta

from repro.core.export import dataset_to_json
from repro.core.scenario import ScenarioConfig, build_scenario, run_scenario
from repro.faults.plan import FaultConfig
from repro.faults.retry import RetryPolicy
from repro.pipeline import PipelineEngine, Stage
from repro.sim.clock import DEFAULT_START, SimClock


def _engine(stages, weeks=3) -> PipelineEngine:
    return PipelineEngine(
        stages, SimClock(DEFAULT_START, DEFAULT_START + timedelta(weeks=weeks))
    )


class _BoomStage(Stage):
    """Raises on configured week indices (picklable, unlike a lambda)."""

    name = "boom"
    provides = ("boom-output",)

    def __init__(self, fail_weeks=()):
        self._fail_weeks = set(fail_weeks)

    def tick(self, ctx):
        if ctx.week_index in self._fail_weeks:
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


# -- a tick that raises is dead-lettered ----------------------------------


def test_degrade_mode_dead_letters_and_completes_the_run():
    boom = _BoomStage(fail_weeks=(1,))
    recorder = _RecorderStage()
    engine = _engine([boom, recorder], weeks=4)
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
    engine = _engine([_BoomStage(fail_weeks=(0,))], weeks=1)
    engine.run()
    (record,) = engine.dead_letters
    assert record.week_index == 0
    assert "RuntimeError" in record.reason
    assert "boom in week 0" in record.reason


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
