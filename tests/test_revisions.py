"""Tests for the revision journal and churn-proportional sweeps.

Covers the `repro.sim.revisions` journal itself (bump/cursor/changed
semantics, event publication), the monitor's size-capped TouchLedger,
the journal wiring of every world-mutation path, and the sweep
contract: a ledger sweep extends standing names' windows in bulk,
picks up every kind of staleness (content mutation, resource
re-registration, new zone registration), and records what full sweeps
record: the serial oracle, and a fused sweep on a monitor without a
journal.
"""

from datetime import datetime, timedelta

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import monitoring
from repro.core.export import dataset_to_json
from repro.core.monitoring import (
    TouchEntry,
    TouchLedger,
    WeeklyMonitor,
    selfcheck_slot,
)
from repro.core.scenario import ScenarioConfig, build_scenario
from repro.dns.passive_dns import PassiveDNS
from repro.dns.records import RRType, ResourceRecord
from repro.dns.zone import ZONE_SET_KEY
from repro.obs import OBS, MetricsRegistry
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.parallel import shard as shard_module
from repro.sim.clock import SimClock
from repro.sim.events import EventLog
from repro.sim.revisions import RevisionJournal
from repro.sim.rng import RngStreams
from repro.web.http import HttpResponse
from repro.web.server import dedicated_server
from repro.web.site import StaticSite
from repro.world.internet import Internet

T0 = datetime(2020, 1, 6)
WEEK = timedelta(weeks=1)


# -- RevisionJournal -------------------------------------------------------


def test_bump_advances_monotonic_per_subject_counters():
    journal = RevisionJournal()
    assert journal.revision("dns", "a.example.com") == 0
    assert journal.bump("dns", "a.example.com") == 1
    assert journal.bump("dns", "a.example.com") == 2
    assert journal.bump("web", "a.example.com") == 1  # kinds never collide
    assert journal.revision("dns", "a.example.com") == 2
    assert journal.revision("web", "a.example.com") == 1


def test_changed_since_returns_only_the_suffix_of_the_change_log():
    journal = RevisionJournal()
    journal.bump("dns", "old.example.com")
    cursor = journal.cursor()
    assert journal.changed_since(cursor) == set()
    journal.bump("site", ("Azure", "web", "res-1"))
    journal.bump("dns", "new.example.com")
    journal.bump("dns", "new.example.com")
    assert journal.changed_since(cursor) == {
        ("site", ("Azure", "web", "res-1")),
        ("dns", "new.example.com"),
    }
    # A newer cursor forgets the older churn.
    assert journal.changed_since(journal.cursor()) == set()


def test_publish_records_the_event_and_bumps_the_kind_prefix():
    events = EventLog()
    journal = RevisionJournal(events)
    event = journal.publish(T0, "cloud.release", "app.azurewebsites.net", owner="org")
    assert event is not None and event.kind == "cloud.release"
    assert events.last(kind="cloud.release").subject == "app.azurewebsites.net"
    assert journal.revision("cloud", "app.azurewebsites.net") == 1


def test_revisions_for_reads_many_subjects_at_once():
    journal = RevisionJournal()
    journal.bump("dns", "a")
    journal.bump("dns", "a")
    journal.bump("net", "10.0.0.1")
    subjects = (("dns", "a"), ("net", "10.0.0.1"), ("web", "b"))
    assert [journal.revision(*subject) for subject in subjects] == [2, 1, 0]


# -- TouchLedger -----------------------------------------------------------


def _entry(fqdn):
    return TouchEntry(fqdn=fqdn, deps=(("dns", fqdn),), state_key=("k",))


def test_touch_ledger_evicts_least_recently_refreshed_past_the_cap():
    ledger = TouchLedger(cap=2)
    ledger.put("a.example.com", _entry("a.example.com"))
    ledger.put("b.example.com", _entry("b.example.com"))
    ledger.put("a.example.com", _entry("a.example.com"))  # refresh: now newest
    ledger.put("c.example.com", _entry("c.example.com"))
    assert ledger.get("b.example.com") is None  # oldest put went first
    assert ledger.get("a.example.com") is not None
    assert ledger.get("c.example.com") is not None
    assert ledger.evictions == 1
    assert len(ledger) == 2


def test_touch_ledger_invalidate_and_cap_validation():
    ledger = TouchLedger(cap=4)
    ledger.put("a.example.com", _entry("a.example.com"))
    ledger.invalidate("a.example.com")
    ledger.invalidate("a.example.com")  # absent: no-op
    assert ledger.get("a.example.com") is None
    with pytest.raises(ValueError):
        TouchLedger(cap=0)


# -- publisher wiring ------------------------------------------------------


def _internet():
    return Internet(RngStreams(7), SimClock())


def _victim(internet, name="shop", body="<html><head><title>Portal</title></head><body>hi</body></html>"):
    azure = internet.catalog.provider("Azure")
    zone = internet.zones.get_zone("acme.com") or internet.zones.create_zone("acme.com")
    resource = azure.provision("azure-web-app", f"acme-{name}", owner="org:acme", at=T0)
    fqdn = f"{name}.acme.com"
    zone.add(ResourceRecord(fqdn, RRType.CNAME, resource.generated_fqdn), T0)
    azure.add_custom_domain(resource, fqdn, T0)
    resource.site.put_index(body)
    return azure, resource, fqdn


def test_zone_mutations_publish_per_name_dns_revisions():
    internet = _internet()
    zone = internet.zones.create_zone("acme.com")
    record = ResourceRecord("www.acme.com", RRType.A, "10.0.0.1")
    zone.add(record, T0)
    assert internet.revisions.revision("dns", "www.acme.com") == 1
    assert zone.name_version("www.acme.com") == 1
    zone.remove(record, T0 + WEEK)
    assert internet.revisions.revision("dns", "www.acme.com") == 2
    # Registering any zone bumps the global zone-set subject.
    assert ("dns", ZONE_SET_KEY) in internet.revisions.changed_since(0)


def test_provider_lifecycle_publishes_cloud_site_web_and_net_revisions():
    internet = _internet()
    journal = internet.revisions
    azure, resource, fqdn = _victim(internet)
    gen = resource.generated_fqdn
    assert journal.revision("cloud", gen) >= 1          # provision
    assert journal.revision("cloud", fqdn) >= 1         # custom domain
    assert journal.revision("web", gen) >= 1            # edge route
    assert journal.revision("web", fqdn) >= 1
    site_key = resource.site.journal_key
    assert site_key == ("Azure", "azure-web-app", "acme-shop")
    assert journal.revision("site", site_key) >= 1      # put_index
    cursor = journal.cursor()
    azure.release(resource, T0 + WEEK)
    changed = journal.changed_since(cursor)
    assert ("cloud", gen) in changed
    assert ("web", fqdn) in changed                     # custom route torn down
    assert ("dns", gen) in changed                      # provider record purged


def test_network_bind_unbind_publish_net_revisions():
    internet = _internet()
    cursor = internet.revisions.cursor()
    aws = internet.catalog.provider("AWS")
    resource = aws.provision("aws-ec2-ip", "box", owner="org:acme", at=T0)
    assert ("net", resource.ip) in internet.revisions.changed_since(cursor)
    aws.release(resource, T0 + WEEK)
    assert internet.revisions.revision("net", resource.ip) == 2


# -- ledger sweep contract -------------------------------------------------


def _ledger_monitor(internet):
    return WeeklyMonitor(internet.client, journal=internet.revisions)


def _run_weeks(internet, monitor, executor, fqdns, schedule, weeks):
    """Sweep ``weeks`` times, applying ``schedule[week]`` mutations first.

    Returns each week's report and the monitor's sample count after it,
    plus the final store histories.
    """
    reports = []
    samples = []
    at = T0
    for week in range(weeks):
        mutate = schedule.get(week)
        if mutate is not None:
            mutate(at)
        reports.append(executor.sweep(monitor, fqdns, at))
        samples.append(monitor.samples_taken)
        at += WEEK
    histories = {
        fqdn: [
            (s.features, s.first_seen, s.last_seen, s.observations)
            for s in monitor.store.history(fqdn)
        ]
        for fqdn in fqdns
    }
    return reports, samples, histories


def _executors():
    # The ledger side sweeps as the one inline shard every run uses
    # ("serial": no fork); the id keeps these cases' names stable.
    return [pytest.param({}, id="serial")]


def _parity_case(executor_kwargs, schedule_builder, weeks=6, victim=_victim):
    """Run one mutation schedule through the serial oracle, a full fused
    sweep (a monitor without a journal) and the ledger sweep; assert
    they record equal stores and the fused pair equal feeds.

    The serial oracle's generic sampler resolves a name again for its
    sitemap fetch, so its feed counts differ from any fused sweep's.
    """
    sides = {}
    for side, monitor_for, executor in (
        ("serial", lambda net: WeeklyMonitor(net.client), SerialExecutor()),
        ("full", lambda net: WeeklyMonitor(net.client), ProcessExecutor()),
        ("ledger", _ledger_monitor, ProcessExecutor(**executor_kwargs)),
    ):
        internet = _internet()
        _, resource, fqdn = victim(internet)
        monitor = monitor_for(internet)
        reports, samples, hist = _run_weeks(
            internet, monitor, executor, [fqdn],
            schedule_builder(internet, resource), weeks,
        )
        sides[side] = {
            "hist": hist,
            "samples": samples,
            "changed": [[(c[0], c[1]) for c in r.changed] for r in reports],
            "feed": _feed(internet),
            "unsound": monitor.ledger_unsound,
        }
    serial, full, ledger = sides["serial"], sides["full"], sides["ledger"]
    for key in ("hist", "samples", "changed"):
        assert full[key] == serial[key], key
        assert ledger[key] == serial[key], key
    assert ledger["feed"] == full["feed"]
    assert ledger["unsound"] == 0
    return ledger["hist"][fqdn]


def _feed(internet):
    return sorted(
        (key, obs.first_seen, obs.last_seen, obs.count)
        for key, obs in internet.passive_dns._observations.items()
    )


def _ledger_samples(monkeypatch):
    """The list of ``(at, fqdn)`` samples ledger sweeps take from now
    on; sweeps on monitors without a journal are not listed."""
    samples = []
    real = shard_module._sample_fused

    def spy(monitor, fqdn, at, headers):
        if monitor.journal is not None:
            samples.append((at, fqdn))
        return real(monitor, fqdn, at, headers)

    monkeypatch.setattr(shard_module, "_sample_fused", spy)
    return samples


def _weeks(samples):
    return [(at - T0) // WEEK for at, _fqdn in samples]


@pytest.mark.parametrize("executor_kwargs", _executors())
def test_site_content_mutation_dirties_the_next_sweep(executor_kwargs):
    def schedule(internet, resource):
        def redeploy(at):
            resource.site.put_index(
                "<html><head><title>slot gacor</title></head></html>"
            )
        return {4: redeploy}

    history = _parity_case(executor_kwargs, schedule)
    # Two states: the original content (touched weeks 0-3) and the
    # redeploy — no phantom "unchanged" touch swallowed the change.
    assert len(history) == 2
    assert history[0][3] == 4  # observations of the first state
    assert history[1][0].title == "slot gacor"


@pytest.mark.parametrize("executor_kwargs", _executors())
def test_released_then_reregistered_resource_dirties_each_transition(
    executor_kwargs, monkeypatch
):
    sampled = _ledger_samples(monkeypatch)

    def schedule(internet, resource):
        azure = internet.catalog.provider("Azure")

        def release(at):
            azure.release(resource, at)

        def reregister(at):
            hijack = azure.provision(
                "azure-web-app", "acme-shop", owner="attacker", at=at
            )
            azure.add_custom_domain(hijack, "shop.acme.com", at)
            hijack.site.put_index(
                "<html><head><title>hijacked</title></head></html>"
            )
        return {2: release, 4: reregister}

    history = _parity_case(executor_kwargs, schedule)
    # Three states: live original, dangling (NXDOMAIN: the release
    # purged the provider record its CNAME points at), hijack.
    assert len(history) == 3
    assert history[1][0].fetch_status == "dns-nxdomain"
    assert history[2][0].title == "hijacked"
    # Each state stands from its first sample until the next transition.
    assert _weeks(sampled) == [0, 2, 4]


def _ec2_victim(internet):
    aws = internet.catalog.provider("AWS")
    zone = internet.zones.create_zone("acme.com")
    resource = aws.provision("aws-ec2-ip", "acme-shop", owner="org:acme", at=T0)
    fqdn = "shop.acme.com"
    zone.add(ResourceRecord(fqdn, RRType.A, resource.ip), T0)
    resource.site.put_index("<html><head><title>Portal</title></head></html>")
    return aws, resource, fqdn


@pytest.mark.parametrize("executor_kwargs", _executors())
def test_dark_address_stands_until_its_ip_is_bound_again(
    executor_kwargs, monkeypatch
):
    sampled = _ledger_samples(monkeypatch)

    def schedule(internet, resource):
        aws = internet.catalog.provider("AWS")

        def release(at):
            aws.release(resource, at)  # unbinds the IP: the A record dangles

        def rebind(at):
            site = StaticSite()
            site.bind_journal(internet.revisions, ("AWS", "aws-ec2-ip", "attacker-vm"))
            site.put_index("<html><head><title>hijacked</title></head></html>")
            internet.network.bind(
                resource.ip, dedicated_server("AWS", site, journal=internet.revisions)
            )
        return {2: release, 4: rebind}

    history = _parity_case(executor_kwargs, schedule, victim=_ec2_victim)
    assert [state[0].fetch_status for state in history] == [
        "ok", "connection-failed", "ok"
    ]
    assert history[1][3] == 2  # the dark state, observed weeks 2-3
    assert history[2][0].title == "hijacked"
    assert _weeks(sampled) == [0, 2, 4]


@pytest.mark.parametrize("executor_kwargs", _executors())
def test_new_provider_zone_registration_dirties_ledger_entries(executor_kwargs):
    def schedule(internet, resource):
        def register(at):
            internet.zones.create_zone("late-provider.example")
        return {4: register}

    history = _parity_case(executor_kwargs, schedule)
    # The zone-set bump forces a full re-proof, but the state did not
    # change: still one state, its window extended every week.
    assert len(history) == 1
    assert history[0][3] == 6


@pytest.mark.parametrize("executor_kwargs", _executors())
def test_clean_names_are_skipped_and_dirty_names_are_counted(executor_kwargs):
    internet = _internet()
    _, resource, fqdn = _victim(internet)
    monitor = _ledger_monitor(internet)
    executor = ProcessExecutor(**executor_kwargs)
    registry = MetricsRegistry()
    OBS.configure(metrics=registry)
    try:
        executor.sweep(monitor, [fqdn], T0)            # first sample: mints proof
        executor.sweep(monitor, [fqdn], T0 + WEEK)     # clean skip
        executor.sweep(monitor, [fqdn], T0 + 2 * WEEK)  # clean skip
        counters = registry.counters()
        assert counters.get("journal.clean_skips", 0) == 2
        assert counters.get("journal.dirty", 0) == 0
        resource.site.put_index("<html><head><title>new</title></head></html>")
        executor.sweep(monitor, [fqdn], T0 + 3 * WEEK)  # dirty: full sample
        counters = registry.counters()
        assert counters.get("journal.clean_skips", 0) == 2
        assert counters.get("journal.dirty", 0) == 1
    finally:
        OBS.reset()
    assert len(monitor.store.history(fqdn)) == 2


def test_week_one_samples_only_the_soundness_slice_and_dirty_names(monkeypatch):
    """Every name stands from its first sample, so a tiny world's second
    sweep samples only the names the journal dirtied, the newly
    monitored and its soundness slice."""
    engine = build_scenario(ScenarioConfig.tiny())
    engine.run(max_weeks=1)
    ledger = engine.payload.monitor.touch_ledger
    proofs = {
        fqdn: ledger.get(fqdn) for fqdn in engine.payload.collector.monitored_sorted
    }
    assert None not in proofs.values()
    swept = {}
    real_begin = TouchLedger.begin_sweep

    def begin_sweep(self, fqdns, changed, at):
        swept.update(fqdns=list(fqdns), changed=set(changed))
        return real_begin(self, fqdns, changed, at)

    monkeypatch.setattr(TouchLedger, "begin_sweep", begin_sweep)
    sampled = _ledger_samples(monkeypatch)
    engine.run(max_weeks=1)
    expected = [
        fqdn for fqdn in swept["fqdns"]
        if fqdn not in proofs
        or selfcheck_slot(fqdn) == 1
        or swept["changed"].intersection(proofs[fqdn].deps)
    ]
    assert [fqdn for _at, fqdn in sampled] == expected
    assert len(expected) < len(swept["fqdns"]) // 2


class _SitemapDownSite(StaticSite):
    """A site whose sitemap fetch always answers 503."""

    def handle(self, request):
        if request.path == "/sitemap.xml":
            return HttpResponse(status=503, body="busy")
        return super().handle(request)


def test_a_page_whose_sitemap_fetch_fails_never_stands():
    internet = _internet()
    azure, resource, fqdn = _victim(internet)
    site = _SitemapDownSite()
    site.put_index("<html><head><title>Portal</title></head></html>")
    azure.replace_site(resource, site)  # adopted: the site has a journal key
    monitor = _ledger_monitor(internet)
    executor = ProcessExecutor()
    for week in range(4):
        executor.sweep(monitor, [fqdn], T0 + week * WEEK)
        assert monitor.touch_ledger.get(fqdn) is None
    (state,) = monitor.store.history(fqdn)
    assert state.features.reachable and state.features.sitemap_count == -1
    assert state.observations == 4
    assert monitor.sitemap_fetches == 4  # sampled in full every week


def test_ledger_cursor_advances_with_the_journal():
    internet = _internet()
    _, _, fqdn = _victim(internet)
    monitor = _ledger_monitor(internet)
    executor = ProcessExecutor()
    assert monitor.touch_ledger.cursor == 0
    executor.sweep(monitor, [fqdn], T0)
    assert monitor.touch_ledger.cursor == internet.revisions.cursor()
    executor.sweep(monitor, [fqdn], T0 + WEEK)
    assert len(monitor.touch_ledger) == 1  # proof minted by the touch


# -- the ledger's own machinery --------------------------------------------


def _proof(fqdn, *deps):
    return TouchEntry(fqdn=fqdn, deps=deps, state_key=("k",))


def test_reverse_index_turns_moved_subjects_into_dirty_names():
    ledger = TouchLedger()
    ledger.put("a.example.com", _proof("a.example.com", ("site", "s1")))
    ledger.put("b.example.com", _proof("b.example.com", ("site", "s1"), ("dns", "b")))
    ledger.put("c.example.com", _proof("c.example.com", ("site", "s2")))
    fqdns = ["a.example.com", "b.example.com", "c.example.com", "d.example.com"]
    assert all(selfcheck_slot(f) not in (0, 1, 2) for f in fqdns)  # no checks
    sample, clean = ledger.begin_sweep(fqdns, {("site", "s1")}, T0)
    assert sample == ["a.example.com", "b.example.com", "d.example.com"]
    assert clean == 1
    assert ledger.get("a.example.com") is None and ledger.get("b.example.com") is None
    assert ledger.sweeps == [T0]
    assert ledger.finish_sweep(cursor=7) == 0 and ledger.cursor == 7
    # A subject's dependents grow to a set and shrink back to one name.
    ledger.put("e.example.com", _proof("e.example.com", ("site", "s2")))
    ledger.invalidate("e.example.com")
    sample, clean = ledger.begin_sweep(fqdns, {("site", "s2")}, T0 + WEEK)
    assert (sample, clean) == (fqdns, 0)
    ledger.finish_sweep(cursor=8)
    # A standing name the sweep does not cover leaves the ledger too.
    ledger.put("c.example.com", _proof("c.example.com", ("site", "s2")))
    sample, clean = ledger.begin_sweep(["d.example.com"], set(), T0 + 2 * WEEK)
    assert (sample, clean, len(ledger)) == (["d.example.com"], 0, 0)


def test_sweep_windows_read_exact_while_standing():
    feed = PassiveDNS()
    record = ResourceRecord("a.example.com", RRType.A, "10.0.0.1")
    obs = feed.observe(record, T0)
    sweeps = [T0]
    obs.stand(sweeps, 1)
    obs.stand(sweeps, 1)  # two standing names resolve through the record
    sweeps.append(T0 + WEEK)
    assert (obs.last_seen, obs.count) == (T0 + WEEK, 3)
    feed.observe(record, T0 + WEEK)  # a direct sighting folds first
    sweeps.append(T0 + 2 * WEEK)
    assert (obs.last_seen, obs.count) == (T0 + 2 * WEEK, 6)
    obs.stand(sweeps, -1)
    sweeps.append(T0 + 3 * WEEK)
    assert (obs.first_seen, obs.last_seen, obs.count) == (T0, T0 + 3 * WEEK, 7)
    obs.stand(sweeps, -1)
    sweeps.append(T0 + 4 * WEEK)
    assert (obs.last_seen, obs.count) == (T0 + 3 * WEEK, 7)


def _three_sites():
    internet = _internet()
    fqdns = []
    resources = []
    for name in ("alpha", "beta", "gamma"):
        _, resource, fqdn = _victim(internet, name=name)
        fqdns.append(fqdn)
        resources.append(resource)
    return internet, sorted(fqdns), resources


def test_ledger_windows_read_exact_after_every_sweep():
    """No flush call: each week the store and the feed read what a full
    fused sweep (a monitor without a journal) recorded."""
    runs = []
    for journal in (False, True):
        internet, fqdns, resources = _three_sites()
        monitor = WeeklyMonitor(
            internet.client, journal=internet.revisions if journal else None
        )
        executor = ProcessExecutor()
        weekly = []
        for week in range(8):
            if week == 5:
                resources[0].site.put_index("<html><title>moved</title></html>")
            executor.sweep(monitor, fqdns, T0 + week * WEEK)
            weekly.append((
                [
                    (s.features, s.first_seen, s.last_seen, s.observations)
                    for fqdn in fqdns for s in monitor.store.history(fqdn)
                ],
                _feed(internet),
                monitor.samples_taken,
            ))
        runs.append(weekly)
        assert len(monitor.touch_ledger) == (3 if journal else 0)
    full, ledger = runs
    assert ledger == full


def test_sound_check_leaves_the_proof_and_its_recency_alone(monkeypatch):
    monkeypatch.setattr(monitoring, "SELFCHECK_SLOTS", 1)  # check every name
    internet, fqdns, _ = _three_sites()
    monitor = _ledger_monitor(internet)
    executor = ProcessExecutor()
    registry = MetricsRegistry()
    OBS.configure(metrics=registry)
    try:
        executor.sweep(monitor, fqdns, T0)  # first samples mint proofs
        proofs = [monitor.touch_ledger.get(fqdn) for fqdn in fqdns]
        order = list(monitor.touch_ledger._entries)
        for week in (1, 2, 3):
            executor.sweep(monitor, fqdns, T0 + week * WEEK)
        counters = registry.counters()
    finally:
        OBS.reset()
    assert counters["selfcheck.ledger.checked"] == 9
    assert "selfcheck.ledger.unsound" not in counters
    assert monitor.ledger_unsound == 0
    assert [monitor.touch_ledger.get(fqdn) for fqdn in fqdns] == proofs
    assert list(monitor.touch_ledger._entries) == order
    assert all(len(monitor.store.history(fqdn)) == 1 for fqdn in fqdns)


def test_unsound_check_records_the_real_sample(monkeypatch):
    monkeypatch.setattr(monitoring, "SELFCHECK_SLOTS", 1)
    internet, fqdns, resources = _three_sites()
    monitor = _ledger_monitor(internet)
    executor = ProcessExecutor()
    executor.sweep(monitor, fqdns, T0)
    executor.sweep(monitor, fqdns, T0 + WEEK)
    # A content edit that forgets its journal bump: no subject moves.
    monkeypatch.setattr(StaticSite, "_bump", lambda self: None)
    resources[0].site.put_index("<html><title>silent edit</title></html>")
    report = executor.sweep(monitor, fqdns, T0 + 2 * WEEK)
    assert monitor.ledger_unsound == 1
    assert [pair[0].title for pair in report.changed] == ["silent edit"]
    assert monitor.touch_ledger.get("alpha.acme.com") is None


def test_self_check_fires_when_a_mutation_path_skips_its_bump(monkeypatch):
    monkeypatch.setattr(StaticSite, "_bump", lambda self: None)
    engine = build_scenario(ScenarioConfig.tiny())
    engine.run()
    assert engine.payload.monitor.ledger_unsound > 0


@settings(max_examples=6, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    weeks=st.integers(4, 10),
    release=st.sampled_from([0.004, 0.02, 0.06]),
    redesign=st.sampled_from([0.01, 0.05, 0.2]),
    cap=st.sampled_from([65536, 40, 3]),
)
def test_ledger_sweeps_equal_the_full_sweep_oracles(
    seed, weeks, release, redesign, cap
):
    """A drawn tiny world swept by default (with any ledger cap), by the
    serial oracle and by a full fused sweep records the same stores,
    dataset and counters.  The feed is compared with the full fused
    sweep: the serial oracle's sitemap fetch resolves a second time."""

    def run(oracle):
        config = ScenarioConfig.tiny(seed=seed)
        config.weeks = weeks
        config.lifecycle.weekly_release_rate = release
        config.lifecycle.weekly_redesign_rate = redesign
        config.monitor.touch_ledger_cap = cap
        engine = build_scenario(config)
        if oracle == "serial":
            stage = next(s for s in engine.stages if s.name == "monitor-sweep")
            stage._executor = engine.payload.executor = SerialExecutor()
        elif oracle == "full":
            engine.payload.monitor.journal = None
        engine.run()
        result = engine.payload
        store = result.monitor.store
        return {
            "store": [
                (fqdn, [
                    (s.features, s.first_seen, s.last_seen, s.observations)
                    for s in store.history(fqdn)
                ])
                for fqdn in store.fqdns()
            ],
            "feed": _feed(result.internet),
            "dataset": dataset_to_json(result.dataset, indent=2),
            "samples": result.monitor.samples_taken,
            "sitemaps": result.monitor.sitemap_fetches,
            "unsound": result.monitor.ledger_unsound,
        }

    ledger, serial, full = run(None), run("serial"), run("full")
    assert ledger["unsound"] == 0
    for key in ("store", "dataset", "samples", "sitemaps"):
        assert ledger[key] == serial[key] == full[key], key
    assert ledger["feed"] == full["feed"]
