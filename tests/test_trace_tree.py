"""Tests for causal trace trees, week series, and the Chrome export.

Covers the deterministic span-id assignment rules (path ids from
per-parent sequence counters, explicit ``seq=`` pinning), context-var
parenting, the tracer's context-manager close-on-error contract, the
metric-key label escaping and per-series histogram bounds fixes, the
week-series delta math, and the two cross-run contracts: same-seed
sim projections (ids included) byte-identical across executors and
between ledger and full sweeps, and the Chrome trace-event export
loading as valid, monotonic trace JSON.
"""

import json
from datetime import datetime

import pytest

from repro.core.scenario import ScenarioConfig, build_scenario
from repro.obs import (
    MS_BOUNDS,
    OBS,
    BufferTracer,
    MetricsRegistry,
    TimeSeriesRecorder,
    Tracer,
    current_span_id,
    deterministic_view,
    metric_key,
    parity_projection,
    sim_projection,
)
from repro.obs.chrome import chrome_trace, render_chrome
from repro.parallel.executor import SerialExecutor

T0 = datetime(2020, 1, 6)


# -- span id assignment ----------------------------------------------------


def test_root_spans_get_per_name_sequence_ids():
    tracer = BufferTracer()
    with tracer.span("a"):
        pass
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    ids = [e["id"] for e in tracer.events]
    assert ids == ["a#0", "a#1", "b#0"]
    assert all("parent" not in e for e in tracer.events)


def test_nested_spans_build_path_ids_and_record_parents():
    tracer = BufferTracer()
    with tracer.span("outer"):
        assert current_span_id() == "outer#0"
        with tracer.span("inner"):
            assert current_span_id() == "outer#0/inner#0"
        with tracer.span("inner"):
            pass
    assert current_span_id() is None
    # Events are emitted at span *exit*: inner spans first.
    by_name = {e["id"]: e for e in tracer.events}
    assert by_name["outer#0/inner#0"]["parent"] == "outer#0"
    assert by_name["outer#0/inner#1"]["parent"] == "outer#0"
    assert "parent" not in by_name["outer#0"]


def test_explicit_seq_pins_the_id_regardless_of_open_order():
    # An explicit seq makes the id reflect simulation structure, not
    # the order spans happened to open in.
    tracer = BufferTracer()
    with tracer.span("sweep"):
        with tracer.span("sweep.shard", seq=3, shard=3):
            pass
        with tracer.span("sweep.shard", seq=0, shard=0):
            pass
    ids = sorted(e["id"] for e in tracer.events if e["name"] == "sweep.shard")
    assert ids == ["sweep#0/sweep.shard#0", "sweep#0/sweep.shard#3"]


def test_child_sequence_counters_die_with_the_parent_span():
    # A fresh parent restarts its children's numbering — counters live
    # on the span object, not in tracer-global state.
    tracer = BufferTracer()
    for _ in range(2):
        with tracer.span("week"):
            with tracer.span("stage"):
                pass
    stage_ids = [e["id"] for e in tracer.events if e["name"] == "stage"]
    assert stage_ids == ["week#0/stage#0", "week#1/stage#0"]


def test_events_record_the_enclosing_span_as_parent():
    tracer = BufferTracer()
    with tracer.span("outer"):
        tracer.event("ping", detail=1)
    tracer.event("pong")
    ping = next(e for e in tracer.events if e["name"] == "ping")
    pong = next(e for e in tracer.events if e["name"] == "pong")
    assert ping["parent"] == "outer#0"
    assert "parent" not in pong


# -- satellite fixes -------------------------------------------------------


def test_tracer_is_a_context_manager_that_closes_on_error(tmp_path):
    path = tmp_path / "t.jsonl"
    with pytest.raises(RuntimeError):
        with Tracer(path=str(path)) as tracer:
            with tracer.span("s", sim=T0):
                pass
            raise RuntimeError("mid-run crash")
    # The handle was flushed and closed: the span line is on disk.
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["name"] == "s"
    # Close is idempotent; writes after close are impossible.
    tracer.close()


def test_metric_key_escapes_label_metacharacters():
    # These two label sets collided into one key before the escaping.
    collided_a = metric_key("x", {"a": "1,b=2"})
    collided_b = metric_key("x", {"a": "1", "b": "2"})
    assert collided_a != collided_b
    assert collided_a == "x{a=1\\,b\\=2}"
    assert metric_key("x", {"a": "v{w}"}) == "x{a=v\\{w\\}}"
    # Backslashes escape first so escapes cannot double-apply.
    assert metric_key("x", {"a": "\\,"}) == "x{a=\\\\\\,}"


def test_registry_counters_stay_distinct_under_hostile_labels():
    registry = MetricsRegistry()
    registry.inc("x", a="1,b=2")
    registry.inc("x", a="1", b="2")
    assert len(registry.counters()) == 2


def test_observe_accepts_per_series_bounds():
    registry = MetricsRegistry()
    registry.observe("tick_ms", 150.0, bounds=MS_BOUNDS)
    registry.observe("tick_ms", 150.0)  # existing series keeps its bounds
    hist = registry.histogram("tick_ms")
    assert hist.bounds == MS_BOUNDS
    assert hist.count == 2
    # 150ms lands in a real bucket, not the overflow tail.
    assert hist.counts[-1] == 0
    # Default-bounds series saturate immediately at this scale — the
    # motivating bug.
    registry.observe("bad_ms", 150.0)
    assert registry.histogram("bad_ms").counts[-1] == 1


# -- week series -----------------------------------------------------------


def test_week_series_records_per_week_deltas():
    registry = MetricsRegistry()
    series = TimeSeriesRecorder()
    registry.inc("samples", 10)
    registry.inc("matches", 2)
    series.snapshot(0, T0, registry)
    registry.inc("samples", 7)
    series.snapshot(1, None, registry)
    series.snapshot(2, None, registry)  # quiet week: no deltas at all
    weeks = series.weeks()
    assert [w["week"] for w in weeks] == [0, 1, 2]
    assert weeks[0]["deltas"] == {"matches": 2, "samples": 10}
    assert weeks[0]["sim"] == T0.isoformat()
    assert weeks[1]["deltas"] == {"samples": 7}
    assert weeks[2]["deltas"] == {}


def test_series_export_and_deterministic_view(tmp_path):
    registry = MetricsRegistry()
    series = TimeSeriesRecorder()
    registry.inc("c", 3)
    series.snapshot(0, T0, registry)
    series.record_stage("monitor-sweep", cpu_s=0.5, wall_s=0.6)
    export = series.export(registry, run={"seed": 7})
    assert export["schema"] == "repro.metrics/1"
    assert export["counters"] == {"c": 3}
    assert export["resources"]["stages"]["monitor-sweep"]["calls"] == 1
    # The deterministic view drops run metadata, resources and sim
    # stamps — only seed-determined content survives.
    view = deterministic_view(export)
    assert set(view) == {"schema", "weeks", "counters"}
    assert view["weeks"] == [{"week": 0, "deltas": {"c": 3}}]
    # And it round-trips through JSON (what perf --check loads).
    assert deterministic_view(json.loads(json.dumps(export))) == view


def test_stage_rows_accumulate():
    series = TimeSeriesRecorder()
    series.record_stage("detect", 0.1, 0.2)
    series.record_stage("detect", 0.3, 0.4)
    row = series.stage_rows()["detect"]
    assert row["calls"] == 2
    assert row["cpu_s"] == pytest.approx(0.4)


# -- cross-executor projection parity --------------------------------------


def _traced_scenario(weeks=4, full=False, serial=False):
    config = ScenarioConfig.tiny()
    config.weeks = weeks
    engine = build_scenario(config)
    if full:
        # A monitor without a journal sweeps every name in full.
        engine.payload.monitor.journal = None
    if serial:
        stage = next(s for s in engine.stages if s.name == "monitor-sweep")
        stage._executor = engine.payload.executor = SerialExecutor()
    registry = MetricsRegistry()
    tracer = BufferTracer()
    OBS.configure(metrics=registry, tracer=tracer,
                  series=TimeSeriesRecorder())
    try:
        engine.run()
    finally:
        OBS.reset()
    tracer.emit_metrics(registry)
    return tracer.events


def test_same_config_rerun_is_identical_including_ids():
    a = _traced_scenario()
    b = _traced_scenario()
    assert a and sim_projection(a) == sim_projection(b)
    span_ids = [e["id"] for e in a if e["type"] == "span"]
    assert len(span_ids) == len(set(span_ids))  # ids are unique
    assert any(e.get("parent") for e in a)  # and the tree is real


def test_parity_projection_is_topology_invariant():
    serial = _traced_scenario(serial=True)
    full = _traced_scenario(full=True)
    inline = _traced_scenario()
    assert parity_projection(serial) == parity_projection(full)
    assert parity_projection(full) == parity_projection(inline)
    # The full projections legitimately differ (the serial oracle opens
    # no shard span) — that's exactly what parity_projection factors
    # out.
    assert sim_projection(serial) != sim_projection(inline)


def test_shard_spans_nest_under_the_sweep_stage():
    events = _traced_scenario()
    shard_spans = [e for e in events if e["name"] == "sweep.shard"]
    assert len(shard_spans) == 4  # one inline shard a week
    for span in shard_spans:
        assert span["parent"].startswith("stage.monitor-sweep#")
        assert span["shard"] == 0
        assert span["id"] == f"{span['parent']}/sweep.shard#0"


# -- chrome export ---------------------------------------------------------


def test_chrome_export_is_valid_trace_event_json():
    events = _traced_scenario()
    doc = json.loads(render_chrome(events))
    assert doc["displayTimeUnit"] == "ms"
    trace_events = doc["traceEvents"]
    assert trace_events
    for entry in trace_events:
        assert entry["ph"] in ("X", "i", "M")
        assert isinstance(entry["pid"], int) and isinstance(entry["tid"], int)
        if entry["ph"] != "M":
            assert isinstance(entry["ts"], int) and entry["ts"] >= 0
        if entry["ph"] == "X":
            assert entry["dur"] >= 0
    # Timestamps are monotonic within each (pid, tid) lane.
    lanes = {}
    for entry in trace_events:
        if entry["ph"] == "M":
            continue
        key = (entry["pid"], entry["tid"])
        assert entry["ts"] >= lanes.get(key, 0), key
        lanes[key] = entry["ts"]


def test_chrome_export_maps_shards_to_their_own_lanes():
    events = _traced_scenario()
    doc = chrome_trace(events)
    shard_tids = {
        entry["tid"]
        for entry in doc["traceEvents"]
        if entry["ph"] == "X" and entry["name"] == "sweep.shard"
    }
    assert shard_tids == {10}
    thread_names = {
        (entry["pid"], entry["tid"]): entry["args"]["name"]
        for entry in doc["traceEvents"]
        if entry["ph"] == "M" and entry["name"] == "thread_name"
    }
    assert thread_names[(1, 10)] == "shard 0"
    assert thread_names[(1, 1)] == "pipeline"


def test_chrome_export_puts_analyses_in_the_report_phase():
    events = [
        {"type": "span", "name": "stage.world", "id": "stage.world#0",
         "wall": 1.0, "dur_ms": 5.0},
        {"type": "span", "name": "analysis.seo", "id": "analysis.seo#0",
         "wall": 2.0, "dur_ms": 3.0},
    ]
    doc = chrome_trace(events)
    process_names = {
        entry["pid"]: entry["args"]["name"]
        for entry in doc["traceEvents"]
        if entry["ph"] == "M" and entry["name"] == "process_name"
    }
    assert process_names == {1: "repro pipeline", 2: "report phase"}
    (seo,) = [e for e in doc["traceEvents"] if e["name"] == "analysis.seo"]
    assert (seo["pid"], seo["tid"]) == (2, 1)


def test_chrome_export_of_an_empty_trace_is_well_formed():
    doc = chrome_trace([])
    assert doc["traceEvents"] == [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "repro pipeline"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "pipeline"}},
    ]
