"""Tests for the weekly monitor and snapshot store."""

import random
from datetime import datetime, timedelta

import pytest

from repro.core.monitoring import MonitorConfig, SnapshotStore, WeeklyMonitor
from repro.dns.records import RRType, ResourceRecord
from repro.faults.plan import FaultConfig, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams
from repro.web.sitemap import Sitemap
from repro.world.internet import Internet

T0 = datetime(2020, 1, 6)


def _victim(internet, name="shop"):
    azure = internet.catalog.provider("Azure")
    zone = internet.zones.get_zone("acme.com") or internet.zones.create_zone("acme.com")
    resource = azure.provision("azure-web-app", f"acme-{name}", owner="org:acme", at=T0)
    fqdn = f"{name}.acme.com"
    zone.add(ResourceRecord(fqdn, RRType.CNAME, resource.generated_fqdn), T0)
    azure.add_custom_domain(resource, fqdn, T0)
    resource.site.put_index("<html><head><title>Portal</title></head><body><p>hi</p></body></html>")
    return azure, resource, fqdn


def test_sample_captures_dns_and_html_features(internet):
    _, resource, fqdn = _victim(internet)
    monitor = WeeklyMonitor(internet.client)
    features = monitor.sample(fqdn, T0)
    assert features.reachable
    assert features.title == "Portal"
    assert resource.generated_fqdn in features.cname_chain
    assert features.html_size > 0
    assert features.dns_status == "NOERROR"


def test_sample_of_dangling_name(internet):
    azure, resource, fqdn = _victim(internet)
    azure.release(resource, T0 + timedelta(days=1))
    monitor = WeeklyMonitor(internet.client)
    features = monitor.sample(fqdn, T0 + timedelta(days=2))
    assert not features.reachable
    assert features.dns_status == "NXDOMAIN"
    assert features.cname_chain  # the dangling chain is preserved


def test_store_dedups_identical_states(internet):
    _, _, fqdn = _victim(internet)
    monitor = WeeklyMonitor(internet.client)
    at = T0
    for week in range(5):
        changed = monitor.sweep([fqdn], at)
        at += timedelta(weeks=1)
        if week == 0:
            assert len(changed) == 1
        else:
            assert changed == []
    history = monitor.store.history(fqdn)
    assert len(history) == 1
    assert history[0].observations == 5
    assert history[0].first_seen == T0


def test_content_change_creates_new_state(internet):
    _, resource, fqdn = _victim(internet)
    monitor = WeeklyMonitor(internet.client)
    monitor.sweep([fqdn], T0)
    resource.site.put_index("<html><head><title>slot gacor</title></head><body><p>judi</p></body></html>")
    changed = monitor.sweep([fqdn], T0 + timedelta(weeks=1))
    assert len(changed) == 1
    current, previous = changed[0]
    assert previous is not None
    assert previous.title == "Portal"
    assert current.title == "slot gacor"
    assert monitor.store.state_count() == 2


def test_sitemap_fetched_on_change_only(internet):
    _, resource, fqdn = _victim(internet)
    sitemap = Sitemap()
    for index in range(20):
        sitemap.add(f"http://{fqdn}/p{index}")
    resource.site.put_sitemap(sitemap)
    monitor = WeeklyMonitor(internet.client)
    monitor.sweep([fqdn], T0)
    assert monitor.sitemap_fetches == 1
    monitor.sweep([fqdn], T0 + timedelta(weeks=1))  # unchanged
    assert monitor.sitemap_fetches == 1
    features = monitor.store.latest(fqdn)
    assert features.sitemap_count == 20
    assert features.sitemap_sample


def test_ethics_bound_two_requests_per_fqdn(internet):
    """At most two HTTP requests per FQDN per weekly sample."""
    _, resource, fqdn = _victim(internet)
    calls = []
    original = internet.client.fetch

    def counting_fetch(*args, **kwargs):
        calls.append(kwargs.get("path") or (args[1] if len(args) > 1 else "/"))
        return original(*args, **kwargs)

    internet.client.fetch = counting_fetch
    monitor = WeeklyMonitor(internet.client)
    monitor.sample(fqdn, T0)
    assert len(calls) <= 2


def test_meta_and_script_features(internet):
    _, resource, fqdn = _victim(internet)
    resource.site.put_index(
        '<html lang="id"><head><title>x</title>'
        '<meta name="keywords" content="slot, judi">'
        '<meta name="generator" content="WordPress 5.8">'
        '<script src="http://141.98.1.1/js/popunder.js"></script></head>'
        '<body><a href="/download/app.apk">app</a>'
        '<a href="https://wa.me/+628123">wa</a></body></html>'
    )
    features = WeeklyMonitor(internet.client).sample(fqdn, T0)
    assert features.has_meta_keywords
    assert features.meta_keywords == ("slot", "judi")
    assert features.generator.startswith("WordPress")
    assert features.lang == "id"
    assert "http://141.98.1.1/js/popunder.js" in features.script_srcs
    assert "https://wa.me/+628123" in features.external_urls
    assert features.download_paths == ("/download/app.apk",)


def test_sweep_iter_batches_cover_all_fqdns(internet):
    fqdns = [
        _victim(internet, name=f"batch{i}")[2]
        for i in range(5)
    ]
    monitor = WeeklyMonitor(internet.client)
    batches = list(monitor.sweep_iter(fqdns, T0, batch_size=2))
    assert len(batches) == 3  # 2 + 2 + 1
    assert monitor.samples_taken == 5
    # First sweep: every FQDN is a new state, one pair per name in order.
    changed = [pair for batch in batches for pair in batch]
    assert [pair[0].fqdn for pair in changed] == fqdns


def test_sweep_iter_equivalent_to_sweep(internet):
    fqdns = [
        _victim(internet, name=f"equiv{i}")[2]
        for i in range(4)
    ]
    batched_monitor = WeeklyMonitor(internet.client)
    flat = [
        pair
        for batch in batched_monitor.sweep_iter(fqdns, T0, batch_size=3)
        for pair in batch
    ]
    plain_monitor = WeeklyMonitor(internet.client)
    swept = plain_monitor.sweep(fqdns, T0)
    assert [p[0].state_key() for p in flat] == [p[0].state_key() for p in swept]
    assert batched_monitor.samples_taken == plain_monitor.samples_taken


def test_sweep_iter_rejects_bad_batch_size(internet):
    monitor = WeeklyMonitor(internet.client)
    try:
        list(monitor.sweep_iter([], T0, batch_size=0))
    except ValueError as error:
        assert "batch_size" in str(error)
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")


def test_sweep_iter_batch_size_one(internet):
    fqdns = [_victim(internet, name=f"one{i}")[2] for i in range(3)]
    monitor = WeeklyMonitor(internet.client)
    batches = list(monitor.sweep_iter(fqdns, T0, batch_size=1))
    assert len(batches) == 3
    assert all(len(batch) == 1 for batch in batches)
    assert monitor.samples_taken == 3


def test_sweep_iter_exact_multiple_has_no_ragged_batch(internet):
    fqdns = [_victim(internet, name=f"mult{i}")[2] for i in range(6)]
    monitor = WeeklyMonitor(internet.client)
    batches = list(monitor.sweep_iter(fqdns, T0, batch_size=3))
    assert [len(batch) for batch in batches] == [3, 3]


def test_sweep_iter_batch_larger_than_input(internet):
    fqdns = [_victim(internet, name=f"big{i}")[2] for i in range(2)]
    monitor = WeeklyMonitor(internet.client)
    batches = list(monitor.sweep_iter(fqdns, T0, batch_size=100))
    assert len(batches) == 1
    assert len(batches[0]) == 2


def test_sweep_iter_empty_input_yields_nothing(internet):
    monitor = WeeklyMonitor(internet.client)
    assert list(monitor.sweep_iter([], T0, batch_size=4)) == []
    assert monitor.samples_taken == 0


# -- sampling under injected faults ---------------------------------------


def _chaos_internet(**rates) -> Internet:
    plan = FaultPlan.from_seed(FaultConfig(enabled=True, **rates), 1)
    return Internet(RngStreams(7), SimClock(), fault_plan=plan)


def test_sample_under_injected_servfail_loses_chain(internet):
    # A SERVFAIL injected at the resolver fires before the zone walk:
    # the sample carries no CNAME chain and an unreachable status.
    chaos = _chaos_internet(dns_servfail_rate=1.0)
    _, resource, fqdn = _victim(chaos)  # provisioning is suppressed chaos
    features = WeeklyMonitor(chaos.client).sample(fqdn, T0)
    assert features.dns_status == "SERVFAIL"
    assert features.fetch_status == "dns-error"
    assert not features.reachable
    assert features.cname_chain == ()


class _ServfailOncePlan:
    """Stub plan: SERVFAILs the first resolution, then behaves."""

    def __init__(self):
        self.calls = 0
        self.retry_rng = random.Random(0)
        self.active = True

    def dns_fault(self, qname):
        self.calls += 1
        return "servfail" if self.calls == 1 else None

    def connection_reset(self, ip):
        return False

    def icmp_blackout(self, ip):
        return False

    def http_fault(self, provider, host):
        return None

    def truncated_body(self, host):
        return False

    def suppressed(self):
        from contextlib import nullcontext
        return nullcontext()


def test_retry_rides_out_injected_servfail_and_keeps_chain(internet):
    _, resource, fqdn = _victim(internet, name="flaky")
    internet.resolver.fault_plan = _ServfailOncePlan()
    internet.client.fault_plan = internet.resolver.fault_plan
    monitor = WeeklyMonitor(
        internet.client, config=MonitorConfig(retry=RetryPolicy.standard(3))
    )
    features = monitor.sample(fqdn, T0)
    # The second attempt resolved cleanly: full chain, reachable, and
    # the attempt count is preserved on the snapshot.
    assert features.reachable
    assert resource.generated_fqdn in features.cname_chain
    assert features.attempts == 2


def test_sweep_quarantines_exhausted_transient_failures():
    chaos = _chaos_internet(connection_reset_rate=1.0)
    _, _, bad = _victim(chaos)
    monitor = WeeklyMonitor(
        chaos.client, config=MonitorConfig(retry=RetryPolicy.standard(2))
    )
    failures: list = []
    batches = list(monitor.sweep_iter([bad], T0, batch_size=2, failures=failures))
    # The reset-forever FQDN never enters the store: no phantom state.
    assert batches == [[]]
    assert failures == [(bad, "connection-reset")]
    assert monitor.store.latest(bad) is None


# -- sweep_iter call-time state (regressions) ------------------------------


def test_sweep_iter_validates_eagerly_at_call_time(internet):
    monitor = WeeklyMonitor(internet.client)
    # The ValueError must fire at the call, not at the first next():
    # a lazily-raising generator silently validates nothing if dropped.
    with pytest.raises(ValueError):
        monitor.sweep_iter([], T0, batch_size=0)


def test_sweep_iter_failure_sink_is_per_call():
    chaos = _chaos_internet(connection_reset_rate=1.0)
    _, _, bad = _victim(chaos)
    monitor = WeeklyMonitor(chaos.client)
    mine: list = []
    batches = list(monitor.sweep_iter([bad], T0, failures=mine))
    assert batches == [[]]
    assert mine == [(bad, "connection-reset")]


def test_interleaved_sweeps_do_not_clobber_failure_lists():
    # Regression: the failure list used to be reset lazily inside the
    # generator body, so starting a second sweep before finishing the
    # first wiped the first sweep's quarantine list mid-flight.
    chaos = _chaos_internet(connection_reset_rate=1.0)
    _, _, bad = _victim(chaos)
    _, _, bad2 = _victim(chaos, name="shop2")
    monitor = WeeklyMonitor(chaos.client)
    first_sink: list = []
    second_sink: list = []
    first = monitor.sweep_iter([bad], T0, batch_size=1, failures=first_sink)
    second = monitor.sweep_iter([bad2], T0, batch_size=1, failures=second_sink)
    next(second)  # start the second sweep before draining the first
    list(first)
    list(second)
    assert first_sink == [(bad, "connection-reset")]
    assert second_sink == [(bad2, "connection-reset")]


# -- prefer_https (regression: the knob used to be dead) -------------------


def test_prefer_https_records_https_scheme_when_cert_is_valid(internet):
    _, resource, fqdn = _victim(internet)
    internet.issue_certificate(resource, fqdn, T0)
    monitor = WeeklyMonitor(
        internet.client, config=MonitorConfig(prefer_https=True)
    )
    features = monitor.sample(fqdn, T0)
    assert features.reachable
    assert features.scheme == "https"
    assert features.title == "Portal"


def test_prefer_https_falls_back_to_http_without_certificate(internet):
    _, _, fqdn = _victim(internet)
    monitor = WeeklyMonitor(
        internet.client, config=MonitorConfig(prefer_https=True)
    )
    features = monitor.sample(fqdn, T0)
    # TLS failed (no cert), the HTTP fallback carried the sample.
    assert features.reachable
    assert features.scheme == "http"


def test_scheme_is_not_part_of_state_identity(internet):
    _, resource, fqdn = _victim(internet)
    http_monitor = WeeklyMonitor(internet.client)
    first = http_monitor.sample(fqdn, T0)
    http_monitor.store.record(first)
    internet.issue_certificate(resource, fqdn, T0)
    https_monitor = WeeklyMonitor(
        internet.client, store=http_monitor.store,
        config=MonitorConfig(prefer_https=True),
    )
    second = https_monitor.sample(fqdn, T0 + timedelta(weeks=1))
    assert second.scheme == "https"
    # Same content over a different scheme is the same observed state.
    assert second.state_key() == first.state_key()
