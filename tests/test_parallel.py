"""Tests for the sweep executor (`repro.parallel`).

Covers the determinism contract (one inline shard records what the
serial oracle records), the fused sampling path's feature parity with
``WeeklyMonitor.sample``, the per-name dead letter, and the extraction
cache.
"""

from datetime import datetime, timedelta

import pytest

from repro.core.export import dataset_to_json
from repro.core.monitoring import ExtractionCache, SnapshotFeatures, WeeklyMonitor
from repro.core.scenario import ScenarioConfig, build_scenario
from repro.core.stages import MonitorSweepStage
from repro.dns.records import RRType, ResourceRecord
from repro.faults.plan import FaultConfig, FaultPlan
from repro.faults.retry import CircuitBreaker, RetryPolicy
from repro.parallel import ProcessExecutor, SerialExecutor, fast_path_eligible
from repro.parallel import executor as executor_module
from repro.parallel import shard as shard_module
from repro.parallel.shard import _sample_fused
from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams
from repro.world.internet import Internet

T0 = datetime(2020, 1, 6)
WEEK = timedelta(weeks=1)


# -- fused path parity -----------------------------------------------------


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


def test_fast_path_requires_quiescent_client_knobs():
    internet = _internet()
    monitor = WeeklyMonitor(internet.client)
    assert fast_path_eligible(monitor)
    monitor.config.prefer_https = True
    assert not fast_path_eligible(monitor)
    monitor.config.prefer_https = False
    monitor.config.retry = RetryPolicy.standard(3)
    assert not fast_path_eligible(monitor)


def test_fast_path_ineligible_under_breaker_or_active_faults():
    internet = _internet()
    internet.client.breaker = CircuitBreaker()
    assert not fast_path_eligible(WeeklyMonitor(internet.client))
    chaotic = _internet()
    chaotic.client.fault_plan = FaultPlan.from_seed(FaultConfig.chaos(0.3), 7)
    assert not fast_path_eligible(WeeklyMonitor(chaotic.client))


def test_fused_sample_matches_generic_sample_feature_for_feature():
    internet = _internet()
    azure, resource, fqdn = _victim(internet)
    missing = "gone.acme.com"
    internet.zones.get_zone("acme.com").add(
        ResourceRecord(missing, RRType.CNAME, "nosuch.azurewebsites.net"), T0
    )
    generic = WeeklyMonitor(internet.client)
    fused = WeeklyMonitor(internet.client)
    headers = {"User-Agent": fused.config.user_agent}
    for name in (fqdn, missing):
        expected = generic.sample(name, T0)
        actual = _sample_fused(fused, name, T0, headers)
        assert isinstance(actual, SnapshotFeatures)
        assert actual == expected


def test_fused_sample_returns_touch_marker_only_when_state_is_unchanged():
    internet = _internet()
    _, resource, fqdn = _victim(internet)
    monitor = WeeklyMonitor(internet.client)
    headers = {"User-Agent": monitor.config.user_agent}
    first = _sample_fused(monitor, fqdn, T0, headers)
    assert isinstance(first, SnapshotFeatures)
    monitor.store.record(first)
    # Unchanged world: the fused path proves the state equal and ships
    # only the name.
    assert _sample_fused(monitor, fqdn, T0 + WEEK, headers) == fqdn
    # Content change: a full sample again.
    resource.site.put_index("<html><head><title>slot gacor</title></head></html>")
    second = _sample_fused(monitor, fqdn, T0 + 2 * WEEK, headers)
    assert isinstance(second, SnapshotFeatures)
    assert second.title == "slot gacor"


def test_store_touch_equals_recording_a_duplicate_state():
    def run(use_touch):
        internet = _internet()
        _, _, fqdn = _victim(internet)
        monitor = WeeklyMonitor(internet.client)
        monitor.store.record(monitor.sample(fqdn, T0))
        if use_touch:
            monitor.store.touch(fqdn, T0 + WEEK)
        else:
            monitor.store.record(monitor.sample(fqdn, T0 + WEEK))
        return [
            (s.features, s.first_seen, s.last_seen, s.observations)
            for s in monitor.store.history(fqdn)
        ]

    assert run(use_touch=True) == run(use_touch=False)


def test_store_touch_extends_observation_window():
    internet = _internet()
    _, _, fqdn = _victim(internet)
    monitor = WeeklyMonitor(internet.client)
    monitor.store.record(monitor.sample(fqdn, T0))
    monitor.store.touch(fqdn, T0 + WEEK)
    (state,) = monitor.store.history(fqdn)
    assert state.observations == 2
    assert state.first_seen == T0
    assert state.last_seen == T0 + WEEK


# -- executor parity -------------------------------------------------------


def _monitored_world(n=6):
    internet = _internet()
    fqdns = []
    for i in range(n):
        _, _, fqdn = _victim(
            internet, name=f"svc{i}",
            body=f"<html><head><title>Site {i % 2}</title></head><body>s{i % 2}</body></html>",
        )
        fqdns.append(fqdn)
    return internet, sorted(fqdns)


def _sweep_all(executor, weeks=3, mutate=None):
    internet, fqdns = _monitored_world()
    monitor = WeeklyMonitor(internet.client)
    reports = []
    counters = []
    at = T0
    for week in range(weeks):
        if mutate is not None:
            mutate(week, internet, fqdns)
        reports.append(executor.sweep(monitor, fqdns, at))
        counters.append((monitor.samples_taken, monitor.sitemap_fetches))
        at += WEEK
    histories = {
        fqdn: [
            (s.features, s.first_seen, s.last_seen, s.observations)
            for s in monitor.store.history(fqdn)
        ]
        for fqdn in fqdns
    }
    return reports, counters, histories


def test_process_executor_matches_serial_store_and_changes():
    serial_reports, serial_counters, serial_hist = _sweep_all(SerialExecutor())
    proc_reports, proc_counters, proc_hist = _sweep_all(ProcessExecutor())
    assert proc_hist == serial_hist
    # Week by week, the monitor's own counters match the serial sweep's.
    assert proc_counters == serial_counters
    for ours, theirs in zip(proc_reports, serial_reports):
        assert [(c[0], c[1]) for c in ours.changed] == [
            (c[0], c[1]) for c in theirs.changed
        ]
        assert ours.failures == theirs.failures


def test_extraction_cache_persists_across_sweeps():
    executor = ProcessExecutor()
    internet, fqdns = _monitored_world()
    monitor = WeeklyMonitor(internet.client)
    executor.sweep(monitor, fqdns, T0)
    misses_after_first = executor.extraction_cache.misses
    assert misses_after_first > 0
    # Same bodies reused across FQDNs: the shared-template pages hit.
    assert executor.extraction_cache.hits > 0
    executor.sweep(monitor, fqdns, T0 + WEEK)
    # Steady state: nothing new to extract.
    assert executor.extraction_cache.misses == misses_after_first


def test_body_hash_memo_is_run_owned_and_bounded():
    assert not hasattr(shard_module, "_HASH_MEMO")
    first = build_scenario(ScenarioConfig.tiny())
    first.run(max_weeks=2)
    assert first.payload.executor.extraction_cache.body_hashes
    # A second run in the same process starts with an empty memo.
    second = build_scenario(ScenarioConfig.tiny())
    assert second.payload.executor.extraction_cache.body_hashes == {}
    cache = ExtractionCache()
    cache.BODY_HASH_MAX = 2
    digests = [cache.body_hash(body) for body in ("a", "b", "c")]
    assert cache.body_hashes == {"c": digests[2]}  # cleared when full
    assert digests[0] == ExtractionCache().body_hash("a")


def test_each_sweep_dispatches_one_inline_shard(monkeypatch):
    # perfbench's layer wrappers time the dispatch by this module
    # global, count shards off ``.results`` and forked sweeps off the
    # ``forked`` keyword.
    calls = []
    real = executor_module.run_shards_supervised

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((kwargs, len(out.results)))
        return out

    monkeypatch.setattr(executor_module, "run_shards_supervised", spy)
    internet, fqdns = _monitored_world(3)
    monitor = WeeklyMonitor(internet.client)
    executor = ProcessExecutor()
    executor.sweep(monitor, fqdns, T0)
    executor.sweep(monitor, fqdns, T0 + WEEK)
    assert calls == [({"forked": False}, 1)] * 2
    with pytest.raises(ValueError):
        real(monitor, fqdns, T0, None, forked=True)


def test_sweep_report_carries_the_shards_measured_cpu(monkeypatch):
    # The shard reads the CPU clock before and after sampling.  A clock
    # that ticks one second per read makes that 1.0 s exactly, which
    # the sweep's wall time never is.
    reads = iter(range(10))
    monkeypatch.setattr(shard_module, "cpu_seconds_now", lambda: float(next(reads)))
    internet, fqdns = _monitored_world(3)
    report = ProcessExecutor().sweep(WeeklyMonitor(internet.client), fqdns, T0)
    assert report.cpu_seconds == 1.0


def test_monitor_stage_defaults_to_one_inline_shard():
    internet, fqdns = _monitored_world(2)
    monitor = WeeklyMonitor(internet.client)

    class Collector:
        monitored_sorted = fqdns

    stage = MonitorSweepStage(monitor, Collector())
    executor = stage._executor
    assert isinstance(executor, ProcessExecutor)
    executor.sweep(monitor, fqdns, T0)
    assert executor.last_mode == "inline"


def _chaos_config() -> ScenarioConfig:
    """CI's chaos run: 12 weeks, faults 0.08, fault seed 2024, 3 retries."""
    config = ScenarioConfig.tiny()
    config.weeks = 12
    config.faults = FaultConfig.chaos(0.08, seed=2024)
    config.monitor.retry = RetryPolicy.standard(3)
    return config


@pytest.mark.parametrize(
    "make_config",
    [
        lambda: ScenarioConfig.tiny(seed=42),
        lambda: ScenarioConfig.tiny(seed=1),
        lambda: ScenarioConfig.tiny(seed=7),
        _chaos_config,
    ],
    ids=["seed42", "seed1", "seed7", "chaos"],
)
def test_default_scenario_matches_serial_oracle(make_config):
    """No CLI path runs ``SerialExecutor``; this keeps it the oracle.

    The default scenario (one inline fused shard; the generic sampler
    inside the shard under chaos) and the same scenario with the serial
    loop swapped into its sweep stage must export the same bytes and
    move the monitor's counters identically.
    """
    outcomes = []
    for oracle in (False, True):
        engine = build_scenario(make_config())
        if oracle:
            stage = next(s for s in engine.stages if s.name == "monitor-sweep")
            stage._executor = engine.payload.executor = SerialExecutor()
        engine.run()
        result = engine.payload
        if not oracle:
            assert result.executor.last_mode == "inline"
        outcomes.append((
            dataset_to_json(result.dataset, indent=2),
            result.monitor.samples_taken,
            result.monitor.sitemap_fetches,
            result.monitor.client.retries_total,
        ))
    default, oracle = outcomes
    assert default == oracle
