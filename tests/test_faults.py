"""Tests for the deterministic fault-injection and resilience layer."""

import random
from datetime import datetime, timedelta

import pytest

from repro.dns.records import RRType, ResourceRecord
from repro.dns.resolver import ResolutionStatus, Resolver
from repro.dns.zone import ZoneRegistry
from repro.faults.plan import (
    DNS_SERVFAIL,
    FaultConfig,
    FaultPlan,
    HTTP_503,
)
from repro.faults.retry import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    RetryPolicy,
)
from repro.net.network import Network
from repro.net.probing import icmp_ping, tcp_probe_any
from repro.sim.rng import RngStreams
from repro.web.client import FetchStatus, HttpClient
from repro.web.http import HttpRequest
from repro.web.server import VirtualHostServer
from repro.web.site import StaticSite

T0 = datetime(2020, 1, 6)


# -- FaultPlan ------------------------------------------------------------


def _chaos_plan(seed: int = 7, level: float = 0.3) -> FaultPlan:
    return FaultPlan(FaultConfig.chaos(level), RngStreams(seed))


def _decision_trace(plan: FaultPlan, n: int = 200):
    return [
        (
            plan.dns_fault(f"host{i}.example.com"),
            plan.connection_reset(f"10.0.0.{i % 250}"),
            plan.http_fault("Azure", f"host{i}.example.com"),
            plan.truncated_body(f"host{i}.example.com"),
        )
        for i in range(n)
    ]


def test_same_seed_replays_identical_decisions():
    a, b = _chaos_plan(seed=11), _chaos_plan(seed=11)
    assert _decision_trace(a) == _decision_trace(b)
    assert a.stats.injected == b.stats.injected
    assert a.stats.total > 0  # at 30% intensity something must fire


def test_different_seeds_diverge():
    assert _decision_trace(_chaos_plan(seed=1)) != _decision_trace(_chaos_plan(seed=2))


def test_disabled_plan_never_injects_and_never_draws():
    plan = FaultPlan(FaultConfig(), RngStreams(3))
    state = plan._dns.getstate(), plan._net.getstate(), plan._http.getstate()
    assert all(
        decision == (None, False, None, False) for decision in _decision_trace(plan)
    )
    assert plan.stats.total == 0
    # No stream advanced: a disabled plan is invisible to determinism.
    assert state == (plan._dns.getstate(), plan._net.getstate(), plan._http.getstate())


def test_suppression_disables_injection_without_draws():
    plan = _chaos_plan(level=1.0)
    with plan.suppressed():
        assert not plan.active
        assert all(
            decision == (None, False, None, False)
            for decision in _decision_trace(plan, n=20)
        )
    assert plan.active
    assert plan.stats.total == 0
    # Back outside, a level-1.0 plan fires on every call.
    assert plan.dns_fault("x.example.com") is not None


def test_per_layer_streams_are_independent():
    # Turning the HTTP layer off must not shift the DNS decision stream.
    full = FaultConfig.chaos(0.3)
    dns_only = FaultConfig.chaos(0.3)
    dns_only.http_503_rate = dns_only.http_429_rate = 0.0
    dns_only.truncated_body_rate = 0.0
    dns_only.connection_reset_rate = dns_only.icmp_blackout_rate = 0.0
    a = FaultPlan(full, RngStreams(5))
    b = FaultPlan(dns_only, RngStreams(5))
    trace_a = []
    trace_b = []
    for i in range(200):
        name = f"h{i}.example.com"
        trace_a.append(a.dns_fault(name))
        a.http_fault("Azure", name)  # interleave draws on other layers
        a.connection_reset("10.0.0.1")
        trace_b.append(b.dns_fault(name))
        b.http_fault("Azure", name)
        b.connection_reset("10.0.0.1")
    assert trace_a == trace_b


def test_chaos_level_validation():
    with pytest.raises(ValueError):
        FaultConfig.chaos(1.5)


def test_stats_rows_sorted():
    plan = _chaos_plan(level=1.0)
    plan.dns_fault("a.example.com")
    plan.http_fault("Azure", "a.example.com")
    kinds = [kind for kind, _ in plan.stats.rows()]
    assert kinds == sorted(kinds)
    assert plan.stats.injected[DNS_SERVFAIL] == 1
    assert plan.stats.injected[HTTP_503] == 1


# -- RetryPolicy ----------------------------------------------------------


def test_backoff_doubles_then_caps():
    policy = RetryPolicy(max_attempts=5, base_delay_s=2.0, max_delay_s=8.0, jitter=0.0)
    assert [policy.backoff_delay(n) for n in (1, 2, 3, 4)] == [2.0, 4.0, 8.0, 8.0]


def test_backoff_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=4, base_delay_s=10.0, jitter=0.25)
    a = [policy.backoff_delay(n, random.Random(9)) for n in (1, 2, 3)]
    b = [policy.backoff_delay(n, random.Random(9)) for n in (1, 2, 3)]
    assert a == b
    for n, delay in zip((1, 2, 3), a):
        nominal = min(policy.max_delay_s, 10.0 * 2.0 ** (n - 1))
        assert 0.75 * nominal <= delay <= 1.25 * nominal


def test_policy_presets_and_validation():
    assert RetryPolicy.none().max_attempts == 1
    assert RetryPolicy.standard(3).max_attempts == 3
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy.none().backoff_delay(0)


# -- CircuitBreaker -------------------------------------------------------


def test_breaker_trips_after_consecutive_failures():
    breaker = CircuitBreaker(failure_threshold=3)
    for i in range(2):
        breaker.record_failure("1.2.3.4", T0)
        assert breaker.state_of("1.2.3.4") == CLOSED
    breaker.record_failure("1.2.3.4", T0)
    assert breaker.state_of("1.2.3.4") == OPEN
    assert breaker.trips == 1
    assert not breaker.allow("1.2.3.4", T0 + timedelta(days=3))
    assert [edge for edge, state, _ in breaker.rows() if state == OPEN] == ["1.2.3.4"]
    # A different edge is unaffected.
    assert breaker.allow("5.6.7.8", T0)


def test_breaker_success_resets_failure_streak():
    breaker = CircuitBreaker(failure_threshold=2)
    breaker.record_failure("1.2.3.4", T0)
    breaker.record_success("1.2.3.4")
    breaker.record_failure("1.2.3.4", T0)
    assert breaker.state_of("1.2.3.4") == CLOSED


def test_breaker_half_opens_after_cooldown_then_closes_on_success():
    breaker = CircuitBreaker(failure_threshold=1, cooldown=timedelta(weeks=1))
    breaker.record_failure("1.2.3.4", T0)
    assert breaker.state_of("1.2.3.4") == OPEN
    assert breaker.allow("1.2.3.4", T0 + timedelta(weeks=1))
    assert breaker.state_of("1.2.3.4") == HALF_OPEN
    breaker.record_success("1.2.3.4")
    assert breaker.state_of("1.2.3.4") == CLOSED
    assert breaker.allow("1.2.3.4", T0 + timedelta(weeks=1, days=1))


def test_breaker_half_open_failure_reopens():
    breaker = CircuitBreaker(failure_threshold=1, cooldown=timedelta(weeks=1))
    breaker.record_failure("1.2.3.4", T0)
    trial_at = T0 + timedelta(weeks=1)
    assert breaker.allow("1.2.3.4", trial_at)
    breaker.record_failure("1.2.3.4", trial_at)
    assert breaker.state_of("1.2.3.4") == OPEN
    assert breaker.trips == 2
    # The cooldown restarts from the failed trial.
    assert not breaker.allow("1.2.3.4", trial_at + timedelta(days=6))
    assert breaker.allow("1.2.3.4", trial_at + timedelta(weeks=1))


def test_breaker_rows_report_only_unhealthy_edges():
    breaker = CircuitBreaker(failure_threshold=2)
    breaker.record_failure("b", T0)
    breaker.record_failure("a", T0)
    breaker.record_failure("a", T0)
    breaker.record_success("c")
    assert breaker.rows() == [("a", OPEN, 2), ("b", CLOSED, 1)]


# -- layer wiring ---------------------------------------------------------


def _dns_plan(**rates) -> FaultPlan:
    return FaultPlan(FaultConfig(enabled=True, **rates), RngStreams(1))


def test_resolver_injects_servfail_and_timeout():
    zones = ZoneRegistry()
    zones.create_zone("example.com").add(
        ResourceRecord("a.example.com", RRType.A, "40.0.0.1"), T0
    )
    servfail = Resolver(zones, fault_plan=_dns_plan(dns_servfail_rate=1.0))
    assert servfail.resolve("a.example.com", at=T0).status == ResolutionStatus.SERVFAIL
    timeout = Resolver(zones, fault_plan=_dns_plan(dns_timeout_rate=1.0))
    assert timeout.resolve("a.example.com", at=T0).status == ResolutionStatus.TIMEOUT
    healthy = Resolver(zones, fault_plan=_dns_plan())
    assert healthy.resolve("a.example.com", at=T0).ok


def test_probing_injects_blackout_and_reset():
    network = Network(fault_plan=_dns_plan(icmp_blackout_rate=1.0,
                                           connection_reset_rate=1.0))
    network.bind("40.0.0.1", VirtualHostServer("Azure"))
    ping = icmp_ping(network, "40.0.0.1")
    assert not ping.responsive
    assert "injected" in ping.detail
    probe = tcp_probe_any(network, "40.0.0.1", (80,))
    assert not probe.responsive
    assert "injected" in probe.detail


def test_edge_injects_http_faults():
    plan = _dns_plan(http_503_rate=1.0)
    edge = VirtualHostServer("Azure", fault_plan=plan)
    site = StaticSite()
    site.put_index("hello")
    edge.route("a.example.com", site)
    response = edge.serve(HttpRequest(host="a.example.com"))
    assert response.status == 503
    assert response.headers.get("Retry-After")
    edge429 = VirtualHostServer("Azure", fault_plan=_dns_plan(http_429_rate=1.0))
    edge429.route("a.example.com", site)
    assert edge429.serve(HttpRequest(host="a.example.com")).status == 429


# -- HttpClient resilience ------------------------------------------------


def _wire_client(body="hello", fault_plan=None, breaker=None, status_5xx=False):
    zones = ZoneRegistry()
    zone = zones.create_zone("example.com")
    network = Network(fault_plan=fault_plan)
    edge = VirtualHostServer("Azure", fault_plan=fault_plan)
    network.bind("40.0.0.1", edge)
    site = StaticSite()
    site.put_index(body)
    edge.route("a.example.com", site)
    zone.add(ResourceRecord("a.example.com", RRType.A, "40.0.0.1"), T0)
    resolver = Resolver(zones, fault_plan=fault_plan)
    return HttpClient(resolver, network, fault_plan=fault_plan, breaker=breaker)


def test_client_reports_http_error_with_response():
    client = _wire_client(fault_plan=_dns_plan(http_503_rate=1.0))
    outcome = client.fetch("a.example.com", at=T0)
    assert outcome.status == FetchStatus.HTTP_ERROR
    assert outcome.http_status == 503
    assert outcome.transient
    assert outcome.attempts == 1


def test_client_reports_truncated_body_as_timeout():
    client = _wire_client(fault_plan=_dns_plan(truncated_body_rate=1.0))
    outcome = client.fetch("a.example.com", at=T0)
    assert outcome.status == FetchStatus.TIMEOUT
    assert "truncated" in outcome.detail


def test_client_reports_connection_reset():
    client = _wire_client(fault_plan=_dns_plan(connection_reset_rate=1.0))
    outcome = client.fetch("a.example.com", at=T0)
    assert outcome.status == FetchStatus.CONNECTION_RESET
    assert outcome.transient


def test_dark_ip_is_not_transient():
    # CONNECTION_FAILED is the dangling-record signal: never retried,
    # never fed to the breaker.
    client = _wire_client()
    zones = ZoneRegistry()
    zones.create_zone("example.com").add(
        ResourceRecord("dead.example.com", RRType.A, "10.9.9.9"), T0
    )
    dark = HttpClient(Resolver(zones), Network())
    outcome = dark.fetch(
        "dead.example.com", at=T0, retry=RetryPolicy.standard(3)
    )
    assert outcome.status == FetchStatus.CONNECTION_FAILED
    assert not outcome.transient
    assert outcome.attempts == 1


class _FlakyOncePlan:
    """Stub plan: resets the first connection, then behaves."""

    def __init__(self):
        self.calls = 0
        self.retry_rng = random.Random(0)
        self.active = True

    def dns_fault(self, qname):
        return None

    def connection_reset(self, ip):
        self.calls += 1
        return self.calls == 1

    def icmp_blackout(self, ip):
        return False

    def http_fault(self, provider, host):
        return None

    def truncated_body(self, host):
        return False


def test_retry_recovers_from_transient_failure():
    client = _wire_client(fault_plan=_FlakyOncePlan())
    outcome = client.fetch("a.example.com", at=T0, retry=RetryPolicy.standard(3))
    assert outcome.ok
    assert outcome.attempts == 2
    assert client.retries_total == 1
    assert client.backoff_seconds_total > 0


def test_retry_exhaustion_returns_last_failure():
    client = _wire_client(fault_plan=_dns_plan(connection_reset_rate=1.0))
    outcome = client.fetch("a.example.com", at=T0, retry=RetryPolicy.standard(3))
    assert outcome.status == FetchStatus.CONNECTION_RESET
    assert outcome.attempts == 3
    assert client.retries_total == 2


def test_breaker_short_circuits_failing_edge():
    breaker = CircuitBreaker(failure_threshold=2)
    client = _wire_client(
        fault_plan=_dns_plan(http_503_rate=1.0), breaker=breaker
    )
    assert client.fetch("a.example.com", at=T0).status == FetchStatus.HTTP_ERROR
    assert client.fetch("a.example.com", at=T0).status == FetchStatus.HTTP_ERROR
    assert breaker.state_of("40.0.0.1") == OPEN
    blocked = client.fetch("a.example.com", at=T0 + timedelta(days=1))
    assert blocked.status == FetchStatus.CIRCUIT_OPEN
    assert blocked.response is None


def test_breaker_retries_under_one_fetch_count_once_per_attempt():
    # Per-attempt accounting: the failed first attempt counts against
    # the edge's streak, and the successful retry resets it to zero.
    breaker = CircuitBreaker(failure_threshold=2)
    client = _wire_client(fault_plan=_FlakyOncePlan(), breaker=breaker)
    outcome = client.fetch("a.example.com", at=T0, retry=RetryPolicy.standard(3))
    assert outcome.ok
    assert breaker.state_of("40.0.0.1") == CLOSED


def test_suppressed_plan_bypasses_breaker():
    breaker = CircuitBreaker(failure_threshold=1)
    plan = _dns_plan(http_503_rate=1.0)
    client = _wire_client(fault_plan=plan, breaker=breaker)
    client.fetch("a.example.com", at=T0)
    assert breaker.state_of("40.0.0.1") == OPEN
    with plan.suppressed():
        outcome = client.fetch("a.example.com", at=T0)
    assert outcome.ok  # no injection, no circuit check
    assert breaker.state_of("40.0.0.1") == OPEN  # and no state change


def test_fault_streams_fork_deterministically_from_master():
    streams_a = RngStreams(42).fork("faults")
    streams_b = RngStreams(42).fork("faults")
    a = FaultPlan(FaultConfig.chaos(0.3), streams_a)
    b = FaultPlan(FaultConfig.chaos(0.3), streams_b)
    assert _decision_trace(a) == _decision_trace(b)


# -- breaker edge cases (regressions) -------------------------------------


def test_breaker_open_with_lost_instant_fails_open_to_trial():
    # Regression: an OPEN circuit whose ``opened_at`` was lost (e.g. a
    # pre-upgrade checkpoint) used to short-circuit its edge forever;
    # it must fail open into a single half-open trial instead.
    breaker = CircuitBreaker(failure_threshold=1, cooldown=timedelta(weeks=1))
    breaker.record_failure("1.2.3.4", T0)
    assert breaker.state_of("1.2.3.4") == OPEN
    breaker._circuits["1.2.3.4"].opened_at = None
    assert breaker.allow("1.2.3.4", T0)  # no cooldown arithmetic possible
    assert breaker.state_of("1.2.3.4") == HALF_OPEN
    breaker.record_success("1.2.3.4")
    assert breaker.state_of("1.2.3.4") == CLOSED


def test_breaker_half_open_admits_exactly_one_probe():
    # Regression: HALF_OPEN used to admit every caller until an outcome
    # landed; only one trial probe may be in flight at a time.
    breaker = CircuitBreaker(failure_threshold=1, cooldown=timedelta(weeks=1))
    breaker.record_failure("1.2.3.4", T0)
    trial_at = T0 + timedelta(weeks=1)
    assert breaker.allow("1.2.3.4", trial_at)
    assert breaker.state_of("1.2.3.4") == HALF_OPEN
    # The trial is pending: everyone else keeps short-circuiting.
    assert not breaker.allow("1.2.3.4", trial_at)
    assert not breaker.allow("1.2.3.4", trial_at + timedelta(hours=1))
    breaker.record_failure("1.2.3.4", trial_at)
    assert breaker.state_of("1.2.3.4") == OPEN
    # Next cooldown: a fresh trial becomes available again.
    assert breaker.allow("1.2.3.4", trial_at + timedelta(weeks=1))


def test_breaker_counts_intermediate_retry_attempts():
    # Regression: only the *final* outcome of a multi-attempt fetch used
    # to reach the breaker, so an edge failing every first try never
    # accumulated a streak.  Every attempt must count: with a threshold
    # of 1, the first failed attempt trips the circuit and the very next
    # retry attempt short-circuits mid-fetch.
    breaker = CircuitBreaker(failure_threshold=1)
    client = _wire_client(fault_plan=_dns_plan(http_503_rate=1.0), breaker=breaker)
    outcome = client.fetch("a.example.com", at=T0, retry=RetryPolicy.standard(3))
    assert outcome.status == FetchStatus.CIRCUIT_OPEN
    assert outcome.attempts == 2  # first try failed, retry short-circuited
    assert breaker.trips == 1
