"""Which layer entry points the traced run wraps, and what it reports.

``TARGETS`` lists the public entry points of each layer, grouped by the
module that owns them.  ``per_layer_metrics`` turns one traced run
(tracer, the program's own counter registry, the finished scenario and
analysis run) into the ``per_layer`` metrics of ``BENCHMARK.json``.
The names in ``PER_LAYER`` are that file's names, in its order.
"""

from __future__ import annotations

import pickle
from typing import Dict, List

from tracing import LEAF, SPAN, LayerTracer, Target

_STAGE_CLASSES = {
    "WorldStage": "world", "OrchestratorStage": "orchestrator",
    "UsersStage": "users", "CollectorRefreshStage": "collector-refresh",
    "MonitorSweepStage": "monitor-sweep", "ChangeDetectStage": "change-detect",
    "DetectStage": "detect", "NotifyStage": "notify", "HarvestStage": "harvest",
}
#: The eight stages that do work at default settings (``notify`` is a
#: no-op unless owner notification is switched on).
STAGES = tuple(name for name in _STAGE_CLASSES.values() if name != "notify")
#: The slowest analysis tasks at full scale, reported one by one.
SLOW_TASKS = ("certificates", "ct_monitoring", "reputation", "blacklist", "seo")


def _count_len(suffix: str):
    def observe(tracer: LayerTracer, out, args, kwargs) -> None:
        tracer.add(suffix, len(out))
    return observe


def _count_new_state(tracer: LayerTracer, out, args, kwargs) -> None:
    if out[0]:
        tracer.add("store.record.new_states", 1)


def _count_dispatch(tracer: LayerTracer, out, args, kwargs) -> None:
    """The shard split of one supervised sweep.

    In forked mode the results crossed a pipe as one pickle each, so
    their pickled size is what the fork protocol moved.
    """
    results = out.results
    tracer.add("executor.shards", len(results))
    tracer.add("executor.child_wall_ns", int(sum(r.wall_seconds for r in results) * 1e9))
    tracer.add("executor.child_cpu_ns", int(sum(r.cpu_seconds for r in results) * 1e9))
    if kwargs.get("forked", True):
        tracer.add("executor.forked_sweeps", 1)
        tracer.add(
            "executor.result_bytes",
            sum(len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)) for r in results),
        )


TARGETS: List[Target] = [
    # pipeline: one span per stage tick.
    *(Target("repro.core.stages", cls, "tick", f"stage.{name}", SPAN)
      for cls, name in _STAGE_CLASSES.items()),
    # core.scenario set-up.
    Target("repro.world.population", "PopulationBuilder", "build",
           "setup.population", SPAN),
    Target("repro.core.collection", "FqdnCollector", "ingest",
           "collector.ingest", SPAN),
    # attacker
    Target("repro.attacker.scanner", "DanglingScanner", "find_candidates",
           "attacker.find_candidates", SPAN,
           _count_len("attacker.find_candidates.candidates")),
    Target("repro.attacker.content", "AbuseContentFactory", "abuse_sitemap",
           "attacker.abuse_sitemap", LEAF, _count_len("attacker.abuse_sitemap.pages")),
    # core.monitoring, dns, web
    Target("repro.core.monitoring", "WeeklyMonitor", "sample", "monitor.sample"),
    Target("repro.parallel.shard", None, "_sample_fused", "monitor.sample_fused"),
    Target("repro.core.monitoring", "WeeklyMonitor", "extract_sitemap_fields",
           "monitor.extract_sitemap"),
    Target("repro.core.monitoring", "SnapshotStore", "record", "store.record",
           LEAF, _count_new_state),
    Target("repro.core.monitoring", "SnapshotStore", "touch", "store.touch"),
    Target("repro.dns.resolver", "Resolver", "resolve", "dns.resolve"),
    Target("repro.dns.passive_dns", "PassiveDNS", "observe", "passive_dns.observe"),
    Target("repro.web.server", "VirtualHostServer", "serve", "web.serve"),
    # sim.revisions
    Target("repro.sim.revisions", "RevisionJournal", "publish", "journal.publish"),
    Target("repro.sim.revisions", "RevisionJournal", "changed_since",
           "journal.changed_since", LEAF, _count_len("journal.changed_since.subjects")),
    # parallel
    Target("repro.parallel.executor", "SerialExecutor", "sweep", "executor.sweep", SPAN),
    Target("repro.parallel.executor", "ProcessExecutor", "sweep", "executor.sweep", SPAN),
    Target("repro.parallel.executor", None, "run_shards_supervised",
           "executor.dispatch", SPAN, _count_dispatch),
    Target("repro.parallel.executor", "ProcessExecutor", "_apply",
           "executor.replay", SPAN),
    # core.changes, core.detection
    Target("repro.core.stages", None, "detect_changes", "changes.detect_changes"),
    Target("repro.core.detection", "AbuseDetector", "process_week",
           "detect.process_week", SPAN),
]


PER_LAYER = [
    *(f"stage.{name}.busy_s" for name in STAGES),
    "pipeline.step.overhead_s",
    "setup.build_s", "setup.population_s", "setup.collector_ingest_s",
    "attacker.find_candidates.calls", "attacker.find_candidates.busy_s",
    "attacker.find_candidates.candidates",
    "attacker.abuse_sitemap.calls", "attacker.abuse_sitemap.busy_s",
    "attacker.abuse_sitemap.pages",
    "monitor.sample.calls", "monitor.sample.busy_s",
    "monitor.sample_fused.calls", "monitor.sample_fused.busy_s",
    "dns.resolve.calls", "dns.resolve.busy_s", "dns.resolve.self_s",
    "web.serve.calls", "web.serve.busy_s", "web.serve.self_s",
    "monitor.extract_sitemap.calls", "monitor.extract_sitemap.busy_s",
    "extraction.html.hits", "extraction.html.misses",
    "store.record.calls", "store.record.busy_s", "store.record.new_states",
    "store.touch.calls", "store.touch.busy_s",
    "passive_dns.observe.calls", "passive_dns.observe.busy_s",
    "journal.publish.calls", "journal.publish.busy_s",
    "journal.changed_since.calls", "journal.changed_since.busy_s",
    "journal.changed_since.subjects",
    "journal.clean_skips", "journal.dirty", "sweep.clean_skip_share",
    "executor.sweep.busy_s", "executor.shards", "executor.forked_sweeps",
    "executor.dispatch_s", "executor.child_wall_s", "executor.child_cpu_s",
    "executor.replay_s", "executor.result_bytes",
    "changes.detect_changes.busy_s", "detect.process_week.busy_s",
    "detector.signatures", "detector.index.prune_share",
    "analysis.run.busy_s", "analysis.render.busy_s", "analysis.export.busy_s",
    *(f"analysis.task.{task}.wall_ms" for task in SLOW_TASKS),
    "failed_share", "trace.overhead_s",
]


def unit(name: str) -> str:
    """The unit of a ``PER_LAYER`` metric, read off its name."""
    for suffix, metric_unit in (("_ms", "ms"), ("_s", "s"), ("_share", "ratio"),
                                ("_bytes", "bytes")):
        if name.endswith(suffix):
            return metric_unit
    return "count"


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(tracer: LayerTracer, registry, result, run) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric but the two ``run.py`` adds.

    ``failed_share`` and ``trace.overhead_s`` compare the traced run
    with the untraced one, so the parent computes them.
    """
    counters = registry.counters()
    counts = tracer.counts
    busy, calls = tracer.busy_s, tracer.calls
    values: Dict[str, float] = {}
    stage_total = 0.0
    for name in _STAGE_CLASSES.values():
        seconds = busy(f"stage.{name}")
        stage_total += seconds
        if name in STAGES:
            values[f"stage.{name}.busy_s"] = seconds
    values["pipeline.step.overhead_s"] = busy("week") - stage_total
    values["setup.build_s"] = busy("setup.build")
    values["setup.population_s"] = tracer.under_s("setup.build", "setup.population")
    values["setup.collector_ingest_s"] = tracer.under_s("setup.build", "collector.ingest")
    for layer in ("attacker.find_candidates", "attacker.abuse_sitemap",
                  "monitor.sample", "monitor.sample_fused", "dns.resolve",
                  "web.serve", "monitor.extract_sitemap", "store.record",
                  "store.touch", "passive_dns.observe", "journal.publish",
                  "journal.changed_since"):
        values[f"{layer}.calls"] = calls(layer)
        values[f"{layer}.busy_s"] = busy(layer)
    for layer in ("dns.resolve", "web.serve"):
        values[f"{layer}.self_s"] = tracer.self_s(layer)
    for key in ("attacker.find_candidates.candidates", "attacker.abuse_sitemap.pages",
                "store.record.new_states", "journal.changed_since.subjects",
                "executor.shards", "executor.forked_sweeps", "executor.result_bytes"):
        values[key] = counts.get(key, 0)
    for key in ("extraction.html.hits", "extraction.html.misses",
                "journal.clean_skips", "journal.dirty"):
        values[key] = counters.get(key, 0)
    values["sweep.clean_skip_share"] = _share(
        counters.get("journal.clean_skips", 0), counters.get("monitor.samples", 0)
    )
    values["executor.sweep.busy_s"] = busy("executor.sweep")
    values["executor.dispatch_s"] = busy("executor.dispatch")
    values["executor.child_wall_s"] = counts.get("executor.child_wall_ns", 0) / 1e9
    values["executor.child_cpu_s"] = counts.get("executor.child_cpu_ns", 0) / 1e9
    values["executor.replay_s"] = busy("executor.replay")
    values["changes.detect_changes.busy_s"] = busy("changes.detect_changes")
    values["detect.process_week.busy_s"] = busy("detect.process_week")
    values["detector.signatures"] = len(result.detector.signatures)
    pruned = counters.get("detector.index.pruned", 0)
    values["detector.index.prune_share"] = _share(
        pruned, pruned + counters.get("detector.index.candidates", 0)
    )
    values["analysis.run.busy_s"] = busy("analysis.run")
    values["analysis.render.busy_s"] = busy("analysis.render")
    values["analysis.export.busy_s"] = busy("analysis.export")
    for task in SLOW_TASKS:
        values[f"analysis.task.{task}.wall_ms"] = run.outcome(task).wall_ms
    return values
