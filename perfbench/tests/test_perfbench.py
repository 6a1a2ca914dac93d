"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import os
import re
import sys
from types import ModuleType

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(REPO_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from layers import PER_LAYER, TARGETS  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import LEAF, SPAN, LayerTracer, Target, installed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _owners():
    for target in TARGETS:
        module = importlib.import_module(target.module)
        yield (getattr(module, target.owner) if target.owner else module), target.attr


def _patched_repro_attributes():
    """Every attribute of a loaded ``repro`` module or class that is a wrapper."""
    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or not isinstance(module, ModuleType):
            continue
        for value in list(vars(module).values()):
            scopes = [value] if isinstance(value, type) else []
            for scope in [module] + scopes:
                for attr, member in vars(scope).items():
                    if getattr(member, "__wrapped_by_perfbench__", False):
                        found.append(f"{getattr(scope, '__name__', scope)}.{attr}")
    return found


# -- wrappers --------------------------------------------------------------


def test_wrappers_install_and_uninstall_cleanly():
    before = {(id(owner), attr): vars(owner)[attr] for owner, attr in _owners()}
    tracer = LayerTracer()
    with installed(tracer, TARGETS):
        for owner, attr in _owners():
            assert vars(owner)[attr] is not before[(id(owner), attr)]
        assert _patched_repro_attributes()
    for owner, attr in _owners():
        assert vars(owner)[attr] is before[(id(owner), attr)]
    assert _patched_repro_attributes() == []


def test_wrappers_uninstall_when_the_run_raises():
    with pytest.raises(RuntimeError):
        with installed(LayerTracer(), TARGETS):
            raise RuntimeError("boom")
    assert _patched_repro_attributes() == []


def test_a_missing_target_restores_what_was_already_wrapped():
    bad = TARGETS[:3] + [Target("repro.core.stages", "WorldStage", "no_such_attr", "x")]
    with pytest.raises(KeyError):
        with installed(LayerTracer(), bad):
            pass
    assert _patched_repro_attributes() == []


def test_traced_tiny_run_exports_the_same_bytes_as_untraced(tmp_path):
    import child
    from repro.core.scenario import ScenarioConfig

    digests = []
    for trace in (False, True):
        out = child.run_job({
            "config": ScenarioConfig.tiny(seed=5), "trace": trace,
            "out_prefix": str(tmp_path / f"t{int(trace)}-"),
        })
        digests.append((out["dataset_sha256"], out["report_sha256"]))
    assert digests[0] == digests[1]
    assert sum(out["week_samples"]) == out["samples"]
    assert len(out["weeks_cpu_ms"]) == len(out["weeks_ms"])
    assert set(out["per_layer"]) == set(PER_LAYER) - {"trace.overhead_s", "failed_share"}
    assert out["failed"] == 0
    assert _patched_repro_attributes() == []


# -- self time -------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_on_a_nested_span_tree():
    clock = _FakeClock()
    tracer = LayerTracer(clock=clock)
    leaf = tracer.wrap(lambda step: clock.__setattr__("now", clock.now + step),
                       Target("m", None, "f", "leaf", LEAF))
    # root [0, 100]: child a [10, 40] holding two leaves of 5 and 7,
    # child b [50, 90] holding span c [60, 70].
    with tracer.span("root"):
        clock.now = 10
        with tracer.span("a"):
            leaf(5)
            leaf(7)
            clock.now = 40
        clock.now = 50
        with tracer.span("b"):
            clock.now = 60
            with tracer.span("c"):
                clock.now = 70
            clock.now = 90
        clock.now = 100
    spans = {s[2]: s for s in tracer.spans}
    ids = {name: s[0] for name, s in spans.items()}
    assert {name: s[5] for name, s in spans.items()} == {
        "root": 100 - 30 - 40, "a": 30 - 12, "b": 40 - 10, "c": 10,
    }
    assert spans["a"][1] == ids["root"] and spans["c"][1] == ids["b"]
    assert spans["root"][1] == 0
    assert tracer.by_parent[("a", "leaf")] == [2, 12, 12]
    assert tracer.calls("leaf") == 2
    assert tracer.busy_s("b") == pytest.approx(40e-9)
    assert tracer.self_s("root") == pytest.approx(30e-9)


def test_recursive_calls_count_once_in_busy_time():
    clock = _FakeClock()
    tracer = LayerTracer(clock=clock)
    target = Target("m", None, "f", "rec", LEAF)

    def rec(depth):
        clock.now += 1
        if depth:
            wrapped(depth - 1)
        clock.now += 1

    wrapped = tracer.wrap(rec, target)
    wrapped(2)
    assert tracer.calls("rec") == 3
    assert tracer.busy_s("rec") == pytest.approx(6e-9)
    assert tracer.self_s("rec") == pytest.approx(6e-9)


def test_span_and_leaf_kinds_are_the_only_kinds():
    assert {target.kind for target in TARGETS} <= {SPAN, LEAF}


# -- end-to-end metrics ------------------------------------------------------


def test_each_phase_and_week_counts_with_its_fastest_repeat():
    from run import end_to_end

    def job(setup, weeks, report):
        return {"t_spawn": 10.0, "t_built": 10.0 + setup, "setup_cpu_s": setup,
                "weeks_ms": weeks, "weeks_cpu_ms": weeks, "report_s": report,
                "report_cpu_s": report, "samples": 600, "peak_rss_mb": 50.0}

    # A slow stretch hit the first week of one job and the second of the other.
    runs = [job(0.5, [900.0, 200.0, 300.0], 0.4), job(0.7, [100.0, 800.0, 300.0], 0.2)]
    metrics = end_to_end(runs + [job(0.6, [100.0, 200.0, 300.0], 0.3)])
    assert metrics["wall_s"] == pytest.approx(0.5 + 0.6 + 0.2)
    assert metrics["cpu_s"] == pytest.approx(0.5 + 0.6 + 0.2)
    assert metrics["fqdn_weeks_per_s"] == pytest.approx(600 / 0.6)
    assert metrics["week_p50_ms"] == 200.0
    assert metrics["setup_s"] == pytest.approx(0.6)
    assert [name for name, _ in END_TO_END] == list(metrics)


# -- BENCHMARK.json ----------------------------------------------------------


def test_every_metric_and_workload_name_is_well_formed():
    names = [name for name, _ in END_TO_END] + PER_LAYER + list(WORKLOADS)
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


#: The metrics and workloads the benchmark was specified with, less
#: ``week_p90_ms`` (runs have 26 weeks, not 100), ``report_s`` (it
#: follows each world's takeover count, not the program's speed) and
#: ``churn-forked`` (forked runs were too noisy on a 2-CPU host).
SPEC_END_TO_END = [
    "wall_s", "cpu_s", "setup_s", "fqdn_weeks_per_s", "week_p50_ms", "peak_rss_mb",
]
SPEC_PER_LAYER = [
    "stage.world.busy_s", "stage.orchestrator.busy_s", "stage.users.busy_s",
    "stage.collector-refresh.busy_s", "stage.monitor-sweep.busy_s",
    "stage.change-detect.busy_s", "stage.detect.busy_s", "stage.harvest.busy_s",
    "pipeline.step.overhead_s",
    "setup.build_s", "setup.population_s", "setup.collector_ingest_s",
    "attacker.find_candidates.calls", "attacker.find_candidates.busy_s",
    "attacker.find_candidates.candidates", "attacker.abuse_sitemap.calls",
    "attacker.abuse_sitemap.busy_s", "attacker.abuse_sitemap.pages",
    "monitor.sample.calls", "monitor.sample.busy_s",
    "dns.resolve.calls", "dns.resolve.busy_s", "web.serve.calls", "web.serve.busy_s",
    "monitor.extract_sitemap.calls", "monitor.extract_sitemap.busy_s",
    "extraction.html.hits", "extraction.html.misses",
    "store.record.calls", "store.record.busy_s", "store.record.new_states",
    "store.touch.calls", "passive_dns.observe.calls", "passive_dns.observe.busy_s",
    "journal.publish.calls", "journal.publish.busy_s",
    "journal.changed_since.calls", "journal.changed_since.busy_s",
    "journal.changed_since.subjects", "journal.clean_skips", "journal.dirty",
    "sweep.clean_skip_share",
    "executor.sweep.busy_s", "executor.shards", "executor.dispatch_s",
    "executor.child_wall_s", "executor.child_cpu_s", "executor.replay_s",
    "executor.result_bytes",
    "changes.detect_changes.busy_s", "detect.process_week.busy_s",
    "detector.signatures", "detector.index.prune_share",
    "analysis.run.busy_s", "analysis.render.busy_s", "analysis.export.busy_s",
    "failed_share", "trace.overhead_s",
]
SPEC_WORKLOADS = ["full-default", "full-incremental"]


def test_every_specified_metric_and_workload_is_in_benchmark_json():
    spec = _benchmark_json()
    assert set(SPEC_END_TO_END) <= {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(SPEC_PER_LAYER) <= per_layer
    assert any(re.fullmatch(r"analysis\.task\..+\.wall_ms", n) for n in per_layer)
    assert set(SPEC_WORKLOADS) == {w["name"] for w in spec["workloads"]}
