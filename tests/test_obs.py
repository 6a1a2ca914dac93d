"""Tests for the observability layer (`repro.obs`).

Covers the registry's series keys and histograms, the tracer's
sampling and determinism contracts, the disabled-mode no-op path, and
regressions for the IssuanceError-only exception handling in the world
builders and the `duration_days` wall-clock footgun.
"""

from datetime import datetime, timezone

import pytest

from repro.core.detection import AbuseEpisode
from repro.core.duration import require_sim_now
from repro.core.scenario import ScenarioConfig, run_scenario
from repro.obs import (
    NULL_METRICS,
    NULL_SPAN,
    NULL_TRACER,
    OBS,
    BufferTracer,
    HistogramData,
    MetricsRegistry,
    Tracer,
    metric_key,
    sim_projection,
)
from repro.pki.ca import IssuanceError
from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams
from repro.world.internet import Internet
from repro.world.population import PopulationBuilder, PopulationConfig

T0 = datetime(2020, 1, 6)


# -- metric keys -----------------------------------------------------------


def test_metric_key_is_canonical_under_kwarg_order():
    assert metric_key("http.retries", {"edge": "1.2.3.4"}) == "http.retries{edge=1.2.3.4}"
    assert (
        metric_key("x", {"b": 2, "a": 1})
        == metric_key("x", {"a": 1, "b": 2})
        == "x{a=1,b=2}"
    )
    assert metric_key("plain", {}) == "plain"


def test_labelled_series_are_order_independent_at_the_call_site():
    registry = MetricsRegistry()
    registry.inc("x", a=1, b=2)
    registry.inc("x", b=2, a=1)
    assert registry.counter("x", a=1, b=2) == 2


def test_histogram_observe():
    hist = HistogramData()
    for value in (1.0, 5.0, 100.0):  # 100 lands in the overflow bucket
        hist.observe(value)
    assert hist.count == 3
    assert hist.total == 106.0
    assert (hist.min, hist.max) == (1.0, 100.0)
    assert hist.counts[0] == 1 and hist.counts[-1] == 1
    assert hist.mean == pytest.approx(106.0 / 3)


# -- disabled-mode no-op path ---------------------------------------------


def test_obs_is_disabled_by_default_and_costs_nothing():
    assert OBS.enabled is False
    assert OBS.metrics is NULL_METRICS
    assert OBS.tracer is NULL_TRACER
    # The null span is a shared singleton: nothing allocates per span.
    span = OBS.tracer.span("anything", sim=T0, week=3, attr="x")
    assert span is NULL_SPAN
    with span:
        pass
    # Null metrics swallow every recording and stay empty.
    NULL_METRICS.inc("x", 5, edge="e")
    NULL_METRICS.observe("h", 2.0)
    assert NULL_METRICS.counters() == {}
    assert NULL_METRICS.histograms() == {}
    assert NULL_METRICS.rows() == []


def test_configure_and_reset_flip_the_enabled_flag():
    registry = MetricsRegistry()
    try:
        OBS.configure(metrics=registry)
        assert OBS.enabled is True
        assert OBS.metrics is registry
        assert OBS.tracer is NULL_TRACER  # None leaves the slot alone
    finally:
        OBS.reset()
    assert OBS.enabled is False and OBS.metrics is NULL_METRICS


# -- tracer ----------------------------------------------------------------


def test_tracer_samples_every_nth_span_per_name_but_aggregates_all():
    tracer = BufferTracer(sample_every=3)
    for _ in range(7):
        with tracer.span("sweep.shard", sim=T0):
            pass
    with tracer.span("other", sim=T0):
        pass
    written = [e["name"] for e in tracer.events if e["type"] == "span"]
    # Spans 1, 4 and 7 of "sweep.shard" survive; "other" starts its own
    # per-name counter so its first span is kept too.
    assert written == ["sweep.shard", "sweep.shard", "sweep.shard", "other"]
    assert tracer.aggregates()["sweep.shard"]["count"] == 7
    assert tracer.aggregates()["other"]["count"] == 1


def test_span_records_exception_and_reraises():
    tracer = BufferTracer()
    with pytest.raises(KeyError):
        with tracer.span("boom", sim=T0):
            raise KeyError("x")
    event = tracer.events[-1]
    assert event["type"] == "span" and event["error"] == "KeyError"


def test_tracer_rejects_bad_sampling():
    with pytest.raises(ValueError):
        Tracer(sample_every=0)


def test_trace_file_round_trips(tmp_path):
    from repro.obs import load_events

    path = tmp_path / "t.jsonl"
    tracer = Tracer(path=str(path))
    with tracer.span("s", sim=T0, week=0, shard=1):
        pass
    registry = MetricsRegistry()
    registry.inc("c", 2)
    tracer.emit_metrics(registry, sim=T0)
    tracer.close()
    events = load_events(str(path))
    assert [e["type"] for e in events] == ["span", "metrics"]
    assert events[0]["shard"] == 1 and "dur_ms" in events[0]
    assert events[1]["counters"] == {"c": 2}


def _traced_run(weeks=4):
    config = ScenarioConfig.tiny()
    config.weeks = weeks
    registry = MetricsRegistry()
    tracer = BufferTracer()
    OBS.configure(metrics=registry, tracer=tracer)
    try:
        result = run_scenario(config)
    finally:
        OBS.reset()
    return result, registry, tracer.events


def test_same_seed_traces_have_identical_sim_projections():
    _, reg_a, events_a = _traced_run()
    _, reg_b, events_b = _traced_run()
    assert events_a and sim_projection(events_a) == sim_projection(events_b)
    # The wall fields are present in the raw events — only the
    # projection strips them.
    assert all("wall" in e for e in events_a)
    assert all("dur_ms" in e for e in events_a if e["type"] == "span")
    assert reg_a == reg_b
    assert reg_a.counter("monitor.samples") > 0
    assert reg_a.counter("resolver.queries") > 0


# -- bugfix regressions: exception handling in the world builders ----------


def _tiny_population_config():
    return PopulationConfig(
        n_enterprises=6, n_universities=2, n_government=2, n_popular=4,
        certificate_rate=1.0, managed_cert_rate=1.0,
    )


def test_issuance_refusals_are_counted_not_swallowed(monkeypatch):
    def refuse(*args, **kwargs):
        raise IssuanceError("CAA forbids this CA")

    monkeypatch.setattr(
        "repro.pki.ca.CertificateAuthority.issue_dns_validated", refuse
    )
    monkeypatch.setattr(Internet, "issue_certificate", refuse)
    internet = Internet(RngStreams(7), SimClock())
    registry = MetricsRegistry()
    OBS.configure(metrics=registry)
    try:
        organizations = PopulationBuilder(internet).build(
            _tiny_population_config(), internet.clock.now
        )
    finally:
        OBS.reset()
    assert organizations  # the build survives a refusing CA
    assert not any(org.managed_cert_sans for org in organizations)
    refused = registry.counters("pki.issuance_refused")
    assert sum(refused.values()) > 0
    assert any("path=asset" in key for key in refused)
    assert any("path=managed" in key for key in refused)


def test_non_issuance_bugs_propagate_from_population_build(monkeypatch):
    # The old blanket `except Exception: pass` hid real bugs.  Use a
    # non-RuntimeError: IssuanceError subclasses RuntimeError, so a
    # RuntimeError probe could not tell the handlers apart.
    def explode(*args, **kwargs):
        raise ZeroDivisionError("real bug")

    monkeypatch.setattr(Internet, "issue_certificate", explode)
    internet = Internet(RngStreams(7), SimClock())
    with pytest.raises(ZeroDivisionError):
        PopulationBuilder(internet).build(
            _tiny_population_config(), internet.clock.now
        )


# -- bugfix regressions: duration_days wall-clock footgun ------------------


def test_open_episode_requires_an_explicit_sim_clock_now():
    episode = AbuseEpisode(started_at=T0, last_matched=T0)
    with pytest.raises(ValueError, match="pass now="):
        episode.duration_days()
    assert episode.duration_days(now=datetime(2020, 1, 20)) == 14.0


def test_duration_days_rejects_tz_aware_wall_clock():
    episode = AbuseEpisode(started_at=T0, last_matched=T0)
    with pytest.raises(ValueError, match="wall-clock"):
        episode.duration_days(now=datetime.now(timezone.utc))


def test_closed_episode_needs_no_now():
    episode = AbuseEpisode(
        started_at=T0, last_matched=T0, ended_at=datetime(2020, 1, 13)
    )
    assert episode.duration_days() == 7.0


def test_require_sim_now_validation():
    with pytest.raises(ValueError, match="now is required"):
        require_sim_now(None)
    with pytest.raises(ValueError, match="wall-clock"):
        require_sim_now(datetime.now(timezone.utc))
    assert require_sim_now(T0) is T0


def test_hijack_record_duration_validates_now():
    from repro.world.ground_truth import HijackRecord

    record = HijackRecord.__new__(HijackRecord)
    record.taken_over_at = T0
    record.remediated_at = None
    with pytest.raises(ValueError, match="still active"):
        record.duration_days()
    with pytest.raises(ValueError, match="wall-clock"):
        record.duration_days(now=datetime.now(timezone.utc))
    assert record.duration_days(now=datetime(2020, 1, 13)) == 7.0
