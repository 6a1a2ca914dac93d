"""Failure injection: the pipeline must survive a hostile web.

The measurement side cannot assume well-formed content, sane DNS, or
cooperative servers — attacker pages are arbitrary bytes and real zones
contain loops.  These tests feed the monitor/detector pathological
inputs and assert graceful degradation, never crashes: a name the
sampler cannot handle costs that name alone, as a dead letter.
"""

from datetime import datetime, timedelta

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.changes import detect_changes
from repro.core.detection import AbuseDetector
from repro.core.monitoring import WeeklyMonitor
from repro.core.stages import MonitorSweepStage
from repro.dns.records import RRType, ResourceRecord
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.pipeline.context import WeekContext
from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams
from repro.web.html import parse_html
from repro.web.site import StaticSite
from repro.web.http import HttpResponse
from repro.world.internet import Internet
from tests.fakes import CallableSite

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
    for executor in (SerialExecutor(), ProcessExecutor()):
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
    from repro.core.signatures import Signature
    from repro.core.sigindex import page_tokens

    signature = Signature(
        signature_id="s", created_at=T0, keywords=frozenset({"slot", "judi"})
    )
    assert signature.match(features) is not None
    assert all(isinstance(t, str) for t in page_tokens(features))


def _histories(monitor, names):
    return {
        name: [
            (s.features, s.first_seen, s.last_seen, s.observations)
            for s in monitor.store.history(name)
        ]
        for name in names
    }


def _sightings(internet, skip=None):
    """The passive-DNS feed as (key, first, last, count), minus ``skip``."""
    return sorted(
        (key, obs.first_seen, obs.last_seen, obs.count)
        for key, obs in internet.resolver.passive_dns._observations.items()
        if obs.record.name != skip
    )


def test_sweep_dead_letters_unsampleable_name():
    """A name whose sample raises costs that name, and only it.

    The sweep runs through the monitor-sweep stage's default executor.
    Every other name must be sampled exactly once a week: the store and
    the passive-DNS sightings of the healthy names equal those of the
    same sweep without the raising name.
    """
    evil = "evil.acme.com"

    def sweep(hostile):
        internet = Internet(RngStreams(7), SimClock())
        names = []
        for i in range(64):
            site = StaticSite()
            site.put_index(
                f"<html><head><title>Shop {i % 3}</title></head><body>{i}</body></html>"
            )
            names.append(f"ok{i:02d}.acme.com")
            _route(internet, names[-1], site)
        if hostile:
            def explode(request):
                raise RuntimeError("attacker-served bytes")

            _route(internet, evil, CallableSite(explode))
            names.insert(32, evil)
        monitor = WeeklyMonitor(internet.client)

        class Collector:
            monitored_sorted = names

        stage = MonitorSweepStage(monitor, Collector())
        letters = []
        for week in range(2):
            ctx = WeekContext(at=T0 + week * WEEK, week_index=week)
            stage.tick(ctx)
            letters.extend((record.item, record.reason) for record in ctx.quarantine)
        healthy = [name for name in names if name != evil]
        return (
            letters, _histories(monitor, healthy), _sightings(internet, skip=evil),
            monitor.samples_taken,
        )

    clean_letters, clean_histories, clean_sightings, clean_samples = sweep(False)
    letters, histories, sightings, samples = sweep(True)
    assert clean_letters == []
    assert letters == [(evil, "sample raised: RuntimeError: attacker-served bytes")] * 2
    assert histories == clean_histories
    assert sightings == clean_sightings
    # What the raising sample did before it raised stays: it counted.
    assert samples == clean_samples + 2


#: Text an attacker might serve: arbitrary unicode, or markup fragments
#: stitched together so the HTML and sitemap parsers see tags, broken
#: attributes, entities and deep nesting.
_FRAGMENTS = (
    "<html>", "<head>", "<title>", "</title>", "<meta name=\"keywords\" content=\"",
    "\">", "<script src=\"", "<a href=\"", "?ref=", "<body>", "<p>", "</p>",
    "<urlset>", "<url>", "<loc>", "</loc>", "</url>", "</urlset>", "<!--",
    "-->", "&amp;", "&#x0;", "\x00", "judi slot gacor", "http://", "\u202e",
)
_HOSTILE_TEXT = st.one_of(
    st.text(max_size=200),
    st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=12)),
             max_size=30).map("".join),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(pages=st.lists(
    st.tuples(_HOSTILE_TEXT, _HOSTILE_TEXT, _HOSTILE_TEXT), min_size=1, max_size=4,
))
def test_hostile_pages_become_states_or_dead_letters(pages):
    """Arbitrary served text never crashes a sweep.

    Each routed site serves an index and a sitemap, and redeploys a new
    index in week two.  The default executor sweeps them for two weeks;
    every name ends as the stored history the serial oracle records on
    a twin world, or as a dead letter (which the oracle then skips).
    """
    def world():
        internet = Internet(RngStreams(7), SimClock())
        sites = []
        for i, (index, sitemap, _) in enumerate(pages):
            site = StaticSite()
            site.put_index(index)
            site.put("/sitemap.xml", sitemap, content_type="application/xml")
            _route(internet, f"h{i}.acme.com", site)
            sites.append(site)
        return internet, sites

    names = [f"h{i}.acme.com" for i in range(len(pages))]
    internet, sites = world()
    twin, twin_sites = world()
    monitor, oracle = WeeklyMonitor(internet.client), WeeklyMonitor(twin.client)
    executor = ProcessExecutor()
    for week in range(2):
        if week == 1:
            for (_, _, redeploy), site, twin_site in zip(pages, sites, twin_sites):
                site.put_index(redeploy)
                twin_site.put_index(redeploy)
        at = T0 + week * WEEK
        report = executor.sweep(monitor, names, at)
        dead = {name for name, _ in report.quarantined}
        SerialExecutor().sweep(oracle, [n for n in names if n not in dead], at)
    assert _histories(monitor, names) == _histories(oracle, names)
