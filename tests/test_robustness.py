"""Failure injection: the pipeline must survive a hostile web.

The measurement side cannot assume well-formed content, sane DNS, or
cooperative servers — attacker pages are arbitrary bytes and real zones
contain loops.  These tests feed the monitor/detector pathological
inputs and assert graceful degradation, never crashes.
"""

from datetime import datetime, timedelta

from repro.core.changes import detect_changes
from repro.core.detection import AbuseDetector
from repro.core.monitoring import WeeklyMonitor
from repro.dns.records import RRType, ResourceRecord
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams
from repro.web.html import parse_html
from repro.web.site import CallableSite, StaticSite
from repro.web.http import HttpResponse
from repro.world.internet import Internet

T0 = datetime(2020, 1, 6)
WEEK = timedelta(weeks=1)


def _route(internet, fqdn, site):
    azure = internet.catalog.provider("Azure")
    edge = azure.edges[0]
    edge.route(fqdn, site)
    zone = internet.zones.get_zone("acme.com") or internet.zones.create_zone("acme.com")
    zone.add(ResourceRecord(fqdn, RRType.A, edge.ip), T0)


def test_monitor_survives_malformed_html(internet):
    site = StaticSite()
    site.put_index("<html><<<<>>>< broken &&& <a href=>< title>nope</ti")
    _route(internet, "broken.acme.com", site)
    features = WeeklyMonitor(internet.client).sample("broken.acme.com", T0)
    assert features.reachable
    assert features.html_size > 0  # captured even though unparsable


def test_monitor_survives_binary_garbage():
    # The parser directly: NUL bytes, invalid nesting, huge attributes.
    garbage = "\x00\x01PK\x03\x04" + "<a " * 1000 + '"' * 500
    document = parse_html(garbage)
    assert document.links == [] or all(hasattr(l, "href") for l in document.links)


def test_monitor_survives_huge_page(internet):
    site = StaticSite()
    site.put_index("<html><body>" + ("<p>slot judi gacor</p>" * 20_000) + "</body></html>")
    _route(internet, "huge.acme.com", site)
    features = WeeklyMonitor(internet.client).sample("huge.acme.com", T0)
    assert features.reachable
    assert features.html_size > 400_000
    assert len(features.keywords) <= 12  # extraction stays bounded


def test_monitor_survives_cname_loop(internet):
    zone = internet.zones.create_zone("acme.com")
    zone.add(ResourceRecord("l1.acme.com", RRType.CNAME, "l2.acme.com"), T0)
    zone.add(ResourceRecord("l2.acme.com", RRType.CNAME, "l1.acme.com"), T0)
    features = WeeklyMonitor(internet.client).sample("l1.acme.com", T0)
    assert features.dns_status == "SERVFAIL"
    assert not features.reachable


def test_monitor_survives_server_5xx(internet):
    site = CallableSite(lambda request: HttpResponse(status=503, body="overloaded"))
    _route(internet, "flaky.acme.com", site)
    monitor = WeeklyMonitor(internet.client)
    features = monitor.sample("flaky.acme.com", T0)
    assert not features.reachable
    assert features.http_status == 503


def test_detector_survives_pathological_states():
    """Garbage, loops and 5xx all flow through detection untouched."""
    # Both executors: the generic-path oracle and the default inline
    # fused shard, whose 5xx and loop branches are its own code.
    for executor in (SerialExecutor(), ProcessExecutor(workers=1)):
        internet = Internet(RngStreams(7), SimClock())
        garbage_site = StaticSite()
        garbage_site.put_index("<<<not html % \x00")
        _route(internet, "g.acme.com", garbage_site)
        _route(internet, "down.acme.com", CallableSite(
            lambda request: HttpResponse(status=503, body="overloaded")
        ))
        zone = internet.zones.get_zone("acme.com")
        zone.add(ResourceRecord("loop.acme.com", RRType.CNAME, "loop.acme.com"), T0)
        monitor = WeeklyMonitor(internet.client)
        detector = AbuseDetector(monitor.store)
        names = ["down.acme.com", "g.acme.com", "loop.acme.com"]
        at = T0
        for _ in range(3):
            report = executor.sweep(monitor, names, at)
            assert report.failures == [("down.acme.com", "http-error")]
            changes = [detect_changes(prev, cur) for cur, prev in report.changed]
            detector.process_week(changes, at)
            at += WEEK
        assert monitor.store.latest("down.acme.com") is None
        assert monitor.store.latest("loop.acme.com").dns_status == "SERVFAIL"
        assert len(detector.dataset) == 0  # nothing flagged, nothing crashed


def test_sitemap_with_absurd_entries(internet):
    site = StaticSite()
    site.put_index("<html><body>x</body></html>")
    entry = "<url><loc>" + "x" * 5000 + "</loc></url>"
    site.put("/sitemap.xml", "<urlset>" + entry * 50, content_type="application/xml")
    _route(internet, "weird.acme.com", site)
    features = WeeklyMonitor(internet.client).sample("weird.acme.com", T0)
    assert features.sitemap_count == 50
    assert len(features.sitemap_sample) <= 10


def test_attacker_controlled_title_cannot_break_signatures(internet):
    """Hostile regex-looking content must not inject into matching."""
    site = StaticSite()
    site.put_index('<html><head><title>.*(\\d+)?[a-z]{1000,}</title></head>'
                   "<body><p>slot judi</p></body></html>")
    _route(internet, "regex.acme.com", site)
    features = WeeklyMonitor(internet.client).sample("regex.acme.com", T0)
    from repro.core.signatures import Signature, page_tokens

    signature = Signature(
        signature_id="s", created_at=T0, keywords=frozenset({"slot", "judi"})
    )
    assert signature.match(features) is not None
    assert all(isinstance(t, str) for t in page_tokens(features))


# -- worker-process robustness (fork plumbing) ------------------------------


def test_fork_failure_leaks_no_file_descriptors(monkeypatch):
    """Regression: a failing ``os.fork`` used to leak both pipe fds."""
    import os
    import pytest
    from repro.parallel.supervisor import fork_with_pipe

    def count_fds():
        return len(os.listdir("/proc/self/fd"))

    def no_fork():
        raise OSError("EAGAIN: simulated pid exhaustion")

    monkeypatch.setattr(os, "fork", no_fork)
    before = count_fds()
    for _ in range(5):
        with pytest.raises(OSError, match="EAGAIN"):
            fork_with_pipe()
    monkeypatch.undo()
    assert count_fds() == before


def test_worker_errors_carry_shard_identity(internet):
    """A dying worker's error names its shard index and slice bounds."""
    import pytest
    from repro.core.monitoring import WeeklyMonitor as Monitor
    from repro.parallel import SupervisorConfig, WorkerFailure
    from repro.parallel.shard import partition, shard_ident
    from repro.parallel.supervisor import ShardSupervisor

    assert shard_ident(2, (10, 15)) == "shard 2 (names[10:15], 5 FQDNs)"

    monitor = Monitor(internet.client)
    # A non-string FQDN explodes inside the worker's sampling loop; the
    # failure reason must say which shard (and which slice) died, forked
    # or inline.
    fqdns = ["ok0.acme.com", "ok1.acme.com", None, "ok2.acme.com"]
    shards = partition(fqdns, 2)
    for forked in (True, False):
        supervisor = ShardSupervisor(monitor, T0, None, SupervisorConfig(), forked)
        with pytest.raises(WorkerFailure) as excinfo:
            supervisor._attempt(1, shards[1], (2, 4), fault=None)
        assert excinfo.value.kind == "error"
        assert "shard 1 (names[2:4], 2 FQDNs)" in str(excinfo.value)


def test_supervised_sweep_quarantines_unsampleable_name(internet):
    """The supervisor turns a poison input into a dead letter, not a crash."""
    from repro.core.monitoring import WeeklyMonitor as Monitor
    from repro.parallel import SupervisorConfig, run_shards_supervised
    from repro.parallel.shard import partition

    monitor = Monitor(internet.client)
    fqdns = ["ok0.acme.com", "ok1.acme.com", None, "ok2.acme.com"]
    shards = partition(fqdns, 2)
    outcome = run_shards_supervised(
        monitor, shards, T0, None, SupervisorConfig(), forked=True
    )
    assert [d.fqdn for d in outcome.quarantined] == [None]
    assert outcome.quarantined[0].shard_index == 1
    sampled = sum(len(r.sampled) + len(r.failures) for r in outcome.results)
    assert sampled == len(fqdns) - 1
