"""Micro-benchmarks of the pipeline's hot paths.

Not a paper artifact — throughput numbers for the operations the
longitudinal pipeline performs millions of times: Algorithm-1
collection, weekly monitor sampling, and recursive resolution, plus the
per-stage wall-time/throughput table sourced from the engine's
:class:`~repro.pipeline.metrics.PipelineMetrics` registry (the same
table ``python -m repro pipeline`` prints).
"""

from repro.core.collection import collect_fqdns
from repro.core.monitoring import MonitorConfig, WeeklyMonitor
from repro.core.reporting import render_table
from repro.core.scenario import ScenarioConfig, run_scenario
from repro.obs import OBS, MetricsRegistry, Tracer
from repro.parallel import SerialExecutor


def test_algorithm1_throughput(paper, benchmark):
    names = paper.collector.monitored_sorted[:500]
    internet = paper.internet
    selected = benchmark(
        collect_fqdns, names, internet.catalog.suffixes,
        internet.catalog.cloud_ips, internet.resolver,
    )
    assert len(selected) >= len(names) // 2


def test_resolver_throughput(paper, benchmark):
    names = paper.collector.monitored_sorted[:500]
    resolver = paper.internet.resolver

    def resolve_all():
        return sum(1 for n in names if resolver.resolve_a_with_chain(n).ok)

    resolved = benchmark(resolve_all)
    assert resolved > 0


def test_monitor_sample_throughput(paper, benchmark):
    names = paper.collector.monitored_sorted[:200]
    monitor = WeeklyMonitor(paper.internet.client, config=MonitorConfig())
    # The plain sample-and-record loop: the generic sampler's cost.
    executor = SerialExecutor()

    def sweep_once():
        return executor.sweep(monitor, names, paper.end)

    benchmark.pedantic(sweep_once, rounds=3, iterations=1)
    assert monitor.samples_taken >= 200


def test_pipeline_stage_timings(emit):
    """Per-stage engine instrumentation over a tiny end-to-end run.

    Runs standalone in seconds (no ``paper`` fixture) so CI can smoke
    it per PR; the emitted table makes stage-level perf regressions
    visible in ``benchmarks/results/``.
    """
    result = run_scenario(ScenarioConfig.tiny())
    metrics = result.metrics
    assert metrics is not None
    rows = metrics.rows()
    assert [row[0] for row in rows] == [
        "world", "orchestrator", "users", "collector-refresh",
        "monitor-sweep", "change-detect", "detect", "notify", "harvest",
    ]
    for row in rows:
        assert row[1] == result.weeks_run  # every stage ticked every week
    sweep = metrics.stage("monitor-sweep")
    assert sweep.items_processed > 0 and sweep.wall_time > 0
    emit(
        "pipeline_stage_timings",
        render_table(
            ["stage", "ticks", "wall s", "mean tick ms", "items", "items/s",
             "retries", "fail+skip", "quarantined"],
            rows,
            title=f"Pipeline stage metrics (tiny, {result.weeks_run} weeks)",
        ),
    )


def test_observability_registry(emit):
    """Hot-path counters off a traced tiny 2-worker run.

    The same registry ``--metrics``/``profile`` read: asserts the
    instrumentation actually fires on the sweep hot path (resolver
    memo, zone memos, sample-path split) and emits the counter table
    next to the stage timings in ``benchmarks/results/``.
    """
    registry = MetricsRegistry()
    tracer = Tracer(sample_every=1)  # aggregate-only, no file
    config = ScenarioConfig.tiny()
    OBS.configure(metrics=registry, tracer=tracer)
    try:
        result = run_scenario(config)
    finally:
        OBS.reset()
        tracer.close()
    counters = registry.counters()
    assert counters["resolver.queries"] > 0
    assert counters["monitor.samples"] > 0
    assert counters["zone.lookup.memo_misses"] > 0
    assert counters.get("sweep.shards.fused", 0) > 0
    sampled = (
        counters.get("journal.clean_skips", 0)
        + counters.get("sweep.sample.touch", 0)
        + counters.get("sweep.sample.full", 0)
        + counters.get("sweep.sample.generic", 0)
    )
    sweep = result.metrics.stage("monitor-sweep")
    assert sampled == sweep.items_processed
    spans = tracer.aggregates()
    assert "stage.monitor-sweep" in spans and "sweep.shard" in spans
    emit(
        "observability_registry",
        render_table(
            ["series", "value"], registry.rows(),
            title=f"Metrics registry (tiny, {result.weeks_run} weeks)",
        ),
    )
