"""Tests for the revision journal and churn-proportional sweeps.

Covers the `repro.sim.revisions` journal itself (bump/cursor/changed
semantics, event publication), the monitor's size-capped TouchLedger,
the journal wiring of every world-mutation path, and the tentpole
contract: incremental sweeps extend clean names' windows from ledger
proofs, pick up every kind of staleness (content mutation, resource
re-registration, new zone registration), and stay byte-identical to a
full sweep of the serial oracle.
"""

from datetime import datetime, timedelta

import pytest

from repro.core.monitoring import TouchEntry, TouchLedger, WeeklyMonitor
from repro.dns.records import RRType, ResourceRecord
from repro.dns.zone import ZONE_SET_KEY
from repro.obs import OBS, MetricsRegistry
from repro.parallel import ProcessExecutor, SerialExecutor
from repro.sim.clock import SimClock
from repro.sim.events import EventLog
from repro.sim.revisions import RevisionJournal
from repro.sim.rng import RngStreams
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
    assert journal.revisions_for((("dns", "a"), ("net", "10.0.0.1"), ("web", "b"))) == (
        2, 1, 0,
    )


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


# -- incremental sweep contract --------------------------------------------


def _incremental_monitor(internet):
    return WeeklyMonitor(
        internet.client, journal=internet.revisions, incremental=True
    )


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
    # The incremental side sweeps as the one inline shard every run
    # uses ("serial": no fork); the id keeps these cases' names stable.
    return [pytest.param({}, id="serial")]


def _parity_case(executor_kwargs, schedule_builder, weeks=6):
    """Run the same mutation schedule full vs incremental; assert equal."""
    baseline_net = _internet()
    _, baseline_resource, fqdn = _victim(baseline_net)
    incremental_net = _internet()
    _, incremental_resource, fqdn2 = _victim(incremental_net)
    assert fqdn == fqdn2

    base_reports, base_samples, base_hist = _run_weeks(
        baseline_net,
        WeeklyMonitor(baseline_net.client),
        SerialExecutor(),
        [fqdn],
        schedule_builder(baseline_net, baseline_resource),
        weeks,
    )
    inc_reports, inc_samples, inc_hist = _run_weeks(
        incremental_net,
        _incremental_monitor(incremental_net),
        ProcessExecutor(**executor_kwargs),
        [fqdn],
        schedule_builder(incremental_net, incremental_resource),
        weeks,
    )
    assert inc_hist == base_hist
    assert inc_samples == base_samples
    for inc, base in zip(inc_reports, base_reports):
        assert [(c[0], c[1]) for c in inc.changed] == [
            (c[0], c[1]) for c in base.changed
        ]
    return inc_hist[fqdn]


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
def test_released_then_reregistered_resource_dirties_each_transition(executor_kwargs):
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
    # Three states: live original, dangling (provider 404), hijack.
    assert len(history) == 3
    assert history[2][0].title == "hijacked"


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
    monitor = _incremental_monitor(internet)
    executor = ProcessExecutor(**executor_kwargs)
    registry = MetricsRegistry()
    OBS.configure(metrics=registry)
    try:
        executor.sweep(monitor, [fqdn], T0)            # full sample
        executor.sweep(monitor, [fqdn], T0 + WEEK)     # touch: mints proof
        executor.sweep(monitor, [fqdn], T0 + 2 * WEEK)  # clean skip
        counters = registry.counters()
        assert counters.get("journal.clean_skips", 0) == 1
        assert counters.get("journal.dirty", 0) == 0
        resource.site.put_index("<html><head><title>new</title></head></html>")
        executor.sweep(monitor, [fqdn], T0 + 3 * WEEK)  # dirty: full sample
        counters = registry.counters()
        assert counters.get("journal.clean_skips", 0) == 1
        assert counters.get("journal.dirty", 0) == 1
    finally:
        OBS.reset()
    assert len(monitor.store.history(fqdn)) == 2


def test_ledger_cursor_advances_with_the_journal():
    internet = _internet()
    _, _, fqdn = _victim(internet)
    monitor = _incremental_monitor(internet)
    executor = ProcessExecutor()
    assert monitor.touch_ledger.cursor == 0
    executor.sweep(monitor, [fqdn], T0)
    assert monitor.touch_ledger.cursor == internet.revisions.cursor()
    executor.sweep(monitor, [fqdn], T0 + WEEK)
    assert len(monitor.touch_ledger) == 1  # proof minted by the touch
