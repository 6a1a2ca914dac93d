"""Tests for the weekly monitor and snapshot store."""

import random
from datetime import datetime, timedelta

from repro.core.monitoring import MonitorConfig, SnapshotStore, WeeklyMonitor
from repro.dns.records import RRType, ResourceRecord
from repro.faults.plan import FaultConfig, FaultPlan
from repro.faults.retry import RetryPolicy
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams
from repro.web.sitemap import Sitemap
from repro.world.internet import Internet

T0 = datetime(2020, 1, 6)


def _executors():
    """Every sweep test runs through both executors: the generic-path
    oracle and the default path, one inline fused shard."""
    return (SerialExecutor(), ProcessExecutor())


def _fresh_internet() -> Internet:
    return Internet(RngStreams(7), SimClock())


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


def test_store_dedups_identical_states():
    for executor in _executors():
        internet = _fresh_internet()
        _, _, fqdn = _victim(internet)
        monitor = WeeklyMonitor(internet.client)
        at = T0
        for week in range(5):
            changed = executor.sweep(monitor, [fqdn], at).changed
            at += timedelta(weeks=1)
            if week == 0:
                assert len(changed) == 1
            else:
                assert changed == []
        history = monitor.store.history(fqdn)
        assert len(history) == 1
        assert history[0].observations == 5
        assert history[0].first_seen == T0
        assert monitor.samples_taken == 5


def test_content_change_creates_new_state():
    for executor in _executors():
        internet = _fresh_internet()
        _, resource, fqdn = _victim(internet)
        monitor = WeeklyMonitor(internet.client)
        executor.sweep(monitor, [fqdn], T0)
        resource.site.put_index(
            "<html><head><title>slot gacor</title></head><body><p>judi</p></body></html>"
        )
        changed = executor.sweep(monitor, [fqdn], T0 + timedelta(weeks=1)).changed
        assert len(changed) == 1
        current, previous = changed[0]
        assert previous is not None
        assert previous.title == "Portal"
        assert current.title == "slot gacor"
        assert len(monitor.store.history(fqdn)) == 2


def test_sitemap_fetched_on_change_only():
    for executor in _executors():
        internet = _fresh_internet()
        _, resource, fqdn = _victim(internet)
        sitemap = Sitemap()
        for index in range(20):
            sitemap.add(f"http://{fqdn}/p{index}")
        resource.site.put_sitemap(sitemap)
        monitor = WeeklyMonitor(internet.client)
        executor.sweep(monitor, [fqdn], T0)
        assert monitor.sitemap_fetches == 1
        executor.sweep(monitor, [fqdn], T0 + timedelta(weeks=1))  # unchanged
        assert monitor.sitemap_fetches == 1
        features = monitor.store.latest(fqdn)
        assert features.sitemap_count == 20
        assert features.sitemap_sample


def test_sweep_records_every_name_in_input_order():
    for executor in _executors():
        internet = _fresh_internet()
        fqdns = [_victim(internet, name=f"order{i}")[2] for i in range(5)]
        monitor = WeeklyMonitor(internet.client)
        report = executor.sweep(monitor, fqdns, T0)
        # First sweep: every FQDN is a new state, one pair per name in order.
        assert [current.fqdn for current, _ in report.changed] == fqdns
        assert monitor.samples_taken == 5
        empty = executor.sweep(monitor, [], T0 + timedelta(weeks=1))
        assert empty.changed == [] and empty.failures == []
        assert monitor.samples_taken == 5


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


# -- sampling under injected faults ---------------------------------------


def _chaos_internet(**rates) -> Internet:
    plan = FaultPlan(FaultConfig(enabled=True, **rates), RngStreams(1))
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
    for executor in _executors():
        chaos = _chaos_internet(connection_reset_rate=1.0)
        _, _, bad = _victim(chaos)
        monitor = WeeklyMonitor(
            chaos.client, config=MonitorConfig(retry=RetryPolicy.standard(2))
        )
        report = executor.sweep(monitor, [bad], T0)
        # The reset-forever FQDN never enters the store: no phantom state.
        assert report.changed == []
        assert report.failures == [(bad, "connection-reset")]
        assert monitor.store.latest(bad) is None


def test_interleaved_sweeps_do_not_clobber_failure_lists():
    # Regression: the failure list used to be reset inside the sweep
    # itself, so a second sweep wiped the first sweep's quarantine list.
    for executor in _executors():
        chaos = _chaos_internet(connection_reset_rate=1.0)
        _, _, bad = _victim(chaos)
        _, _, bad2 = _victim(chaos, name="shop2")
        monitor = WeeklyMonitor(chaos.client)
        first = executor.sweep(monitor, [bad], T0)
        second = executor.sweep(monitor, [bad2], T0)
        assert first.failures == [(bad, "connection-reset")]
        assert second.failures == [(bad2, "connection-reset")]


# -- sitemap summary ------------------------------------------------------


def test_sitemap_fields_equal_the_full_parse(internet):
    """The monitor's one-pass summary reads what parsing every entry read."""
    from repro.web.sitemap import parse_sitemap

    bulk = Sitemap()
    for index in range(300):
        bulk.add(f"http://x.acme.com/slot-{index}.html", lastmod=T0)
    hostile = (
        "<urlset><url><loc> http://a/1 </loc></url><url><url><loc>http://a/2</loc>"
        "</url><url><loc>\n</loc></url><url>no loc</url><url><loc>http://a/open"
    )
    for cap in (0, 1, 10):
        monitor = WeeklyMonitor(internet.client, config=MonitorConfig(sitemap_sample_cap=cap))
        for body in (bulk.render(), hostile, ""):
            parsed = parse_sitemap(body)
            assert monitor.extract_sitemap_fields(body) == (
                len(body.encode("utf-8")), len(parsed), tuple(parsed.urls()[:cap])
            )
