"""The application-layer HTTP client.

This is the measurement side's "download the HTML from the actual
FQDN" check (Section 2): resolve the name, connect to the resulting
address, send a request with the FQDN in the ``Host`` header, and (for
HTTPS) validate the presented certificate.  Unlike transport probes it
traverses the virtual-hosting routing logic and therefore reports the
liveness of the *resource*, not the *server*.

The client is also the resilience seam of the measurement path: a
:class:`~repro.faults.RetryPolicy` retries transient failures (DNS
timeouts, connection resets, 5xx/429, truncated bodies) with capped
exponential backoff accounted on the *simulated* clock, and a
:class:`~repro.faults.CircuitBreaker` keyed by edge address stops
hammering a provider edge that keeps failing, half-opening after a
cooldown week.  With the default no-retry policy and no fault plan the
behaviour is bit-identical to the resilience-free client.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Dict, Optional

from repro.dns.resolver import ResolutionResult, ResolutionStatus, Resolver
from repro.faults.retry import CircuitBreaker, RetryPolicy
from repro.obs import OBS
from repro.net.network import Network
from repro.web.cookies import CookieJar
from repro.web.http import HttpRequest, HttpResponse


class FetchStatus(enum.Enum):
    """How a fetch attempt ended."""

    OK = "ok"
    DNS_NXDOMAIN = "dns-nxdomain"
    DNS_ERROR = "dns-error"
    CONNECTION_FAILED = "connection-failed"
    TLS_ERROR = "tls-error"
    #: The request never completed: DNS timeout, or the body was cut
    #: off mid-transfer.  Transient — worth retrying.
    TIMEOUT = "timeout"
    #: The server answered, but with a 5xx or 429 — previously this was
    #: indistinguishable from success at the status level.
    HTTP_ERROR = "http-error"
    #: The TCP connection was established then reset (injected faults;
    #: distinct from CONNECTION_FAILED, which means a dark address).
    CONNECTION_RESET = "connection-reset"
    #: The per-edge circuit breaker is open: the request was never sent.
    CIRCUIT_OPEN = "circuit-open"


#: Statuses worth retrying: the failure may not reproduce.  A dark
#: address (CONNECTION_FAILED) is *not* here — in the simulation that
#: is the dangling-record signal itself, not a flaky path.
TRANSIENT_STATUSES = frozenset(
    {
        FetchStatus.DNS_ERROR,
        FetchStatus.TIMEOUT,
        FetchStatus.HTTP_ERROR,
        FetchStatus.CONNECTION_RESET,
    }
)

#: Statuses that count as edge failures for the circuit breaker — the
#: edge answered badly or the path to it broke; DNS-level failures
#: never reached an edge.
BREAKER_FAILURE_STATUSES = frozenset(
    {
        FetchStatus.TIMEOUT,
        FetchStatus.HTTP_ERROR,
        FetchStatus.CONNECTION_RESET,
    }
)


@dataclass
class FetchOutcome:
    """Result of one fetch: status, resolution detail and the response."""

    status: FetchStatus
    resolution: Optional[ResolutionResult] = None
    response: Optional[HttpResponse] = None
    ip: Optional[str] = None
    tls_detail: str = ""
    #: Free-text failure detail ("body truncated", "connection reset").
    detail: str = ""
    #: How many attempts this outcome took (1 = first try).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == FetchStatus.OK and self.response is not None

    @property
    def transient(self) -> bool:
        """Whether the failure class is worth retrying."""
        return self.status in TRANSIENT_STATUSES

    @property
    def http_status(self) -> int:
        """The HTTP status code, or 0 when no response came back."""
        return self.response.status if self.response is not None else 0


class HttpClient:
    """Fetch URLs through the simulated DNS and network layers."""

    def __init__(
        self,
        resolver: Resolver,
        network: Network,
        fault_plan=None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self._resolver = resolver
        self._network = network
        self.fault_plan = fault_plan
        #: Default policy for callers that pass no per-fetch ``retry``.
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy.none()
        self.breaker = breaker
        #: Total retry attempts performed (beyond first tries).
        self.retries_total = 0
        #: Total simulated seconds spent in backoff waits.
        self.backoff_seconds_total = 0.0

    def fetch(
        self,
        fqdn: str,
        path: str = "/",
        scheme: str = "http",
        at: Optional[datetime] = None,
        headers: Optional[Dict[str, str]] = None,
        cookie_jar: Optional[CookieJar] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> FetchOutcome:
        """GET ``scheme://fqdn{path}``, retrying transient failures.

        ``retry`` overrides the client's default policy for this call —
        the weekly monitor passes its own budget while interactive
        browsing keeps fail-fast semantics.  Each retry is stamped at
        ``at`` plus the accumulated backoff on the simulated clock.
        When ``cookie_jar`` is given, applicable cookies (respecting
        the Secure flag against ``scheme``) are attached, and any
        Set-Cookie values in the response are stored back.
        """
        policy = retry if retry is not None else self.retry_policy
        rng = self.fault_plan.retry_rng if self.fault_plan is not None else None
        attempt_at = at
        attempt = 0
        while True:
            attempt += 1
            outcome = self._fetch_once(fqdn, path, scheme, attempt_at, headers, cookie_jar)
            outcome.attempts = attempt
            # Every attempt feeds the breaker, not just the final one:
            # a retry policy must not understate an edge's failure
            # streak by hiding the transient attempts it rode out.
            self._note_breaker(outcome, attempt_at)
            if OBS.enabled:
                OBS.metrics.inc("http.attempts")
            if not outcome.transient or attempt >= policy.max_attempts:
                if OBS.enabled:
                    OBS.metrics.inc("http.fetch", status=outcome.status.value)
                    if attempt > 1:
                        OBS.metrics.observe("http.attempts_per_fetch", attempt)
                return outcome
            self.retries_total += 1
            if OBS.enabled:
                OBS.metrics.inc("http.retries")
                OBS.metrics.inc("http.retries", edge=outcome.ip or "-")
            if attempt_at is not None:
                delay = policy.backoff_delay(attempt, rng)
                self.backoff_seconds_total += delay
                attempt_at = attempt_at + timedelta(seconds=delay)

    def _fetch_once(
        self,
        fqdn: str,
        path: str,
        scheme: str,
        at: Optional[datetime],
        headers: Optional[Dict[str, str]],
        cookie_jar: Optional[CookieJar],
    ) -> FetchOutcome:
        resolution = self._resolver.resolve_a_with_chain(fqdn, at=at)
        if resolution.status == ResolutionStatus.NXDOMAIN:
            return FetchOutcome(FetchStatus.DNS_NXDOMAIN, resolution)
        if resolution.status == ResolutionStatus.TIMEOUT:
            return FetchOutcome(
                FetchStatus.TIMEOUT, resolution, detail="dns query timed out"
            )
        if not resolution.ok:
            return FetchOutcome(FetchStatus.DNS_ERROR, resolution)
        ip = resolution.addresses[0]
        if (
            self.breaker is not None
            and not self._suppressed
            and at is not None
            and not self.breaker.allow(ip, at)
        ):
            return FetchOutcome(
                FetchStatus.CIRCUIT_OPEN, resolution, ip=ip,
                detail="circuit breaker open for edge",
            )
        if self.fault_plan is not None and self.fault_plan.connection_reset(ip):
            return FetchOutcome(
                FetchStatus.CONNECTION_RESET, resolution, ip=ip,
                detail="connection reset by peer (injected)",
            )
        host = self._network.host_at(ip)
        if host is None or not hasattr(host, "serve"):
            return FetchOutcome(FetchStatus.CONNECTION_FAILED, resolution, ip=ip)
        if scheme == "https":
            problem = self._validate_tls(host, fqdn, at)
            if problem:
                return FetchOutcome(
                    FetchStatus.TLS_ERROR, resolution, ip=ip, tls_detail=problem
                )
        cookie_objects = cookie_jar.cookies_for(fqdn, scheme) if cookie_jar else []
        request = HttpRequest(
            host=fqdn,
            path=path,
            scheme=scheme,
            headers=dict(headers or {}),
            cookies={c.name: c.value for c in cookie_objects},
            cookie_objects=cookie_objects,
        )
        response = host.serve(request)
        if self.fault_plan is not None and self.fault_plan.truncated_body(fqdn):
            return FetchOutcome(
                FetchStatus.TIMEOUT, resolution, ip=ip,
                detail="response body truncated mid-transfer (injected)",
            )
        if response.status >= 500 or response.status == 429:
            return FetchOutcome(
                FetchStatus.HTTP_ERROR, resolution, response=response, ip=ip,
                detail=f"server answered {response.status}",
            )
        if cookie_jar is not None:
            for cookie in response.set_cookies:
                cookie_jar.set(cookie)
        return FetchOutcome(FetchStatus.OK, resolution, response=response, ip=ip)

    @property
    def resolver(self) -> Resolver:
        """The DNS layer this client resolves through."""
        return self._resolver

    @property
    def network(self) -> Network:
        """The transport layer this client connects through."""
        return self._network

    @property
    def _suppressed(self) -> bool:
        """Control-plane fetch in progress: no injection, no breaker."""
        return self.fault_plan is not None and not self.fault_plan.active

    def _note_breaker(self, outcome: FetchOutcome, at: Optional[datetime]) -> None:
        """Feed one attempt's outcome into the per-edge circuit breaker."""
        if self.breaker is None or outcome.ip is None or self._suppressed:
            return
        if outcome.status == FetchStatus.CIRCUIT_OPEN:
            return
        if outcome.status in BREAKER_FAILURE_STATUSES:
            if at is not None:
                self.breaker.record_failure(outcome.ip, at)
        else:
            self.breaker.record_success(outcome.ip)

    def _validate_tls(self, host, fqdn: str, at: Optional[datetime]) -> str:
        """Return a problem string, or '' if the handshake would succeed."""
        getter = getattr(host, "certificate_for", None)
        if getter is None:
            return "server does not speak TLS"
        certificate = getter(fqdn)
        if certificate is None:
            return "no certificate installed for host"
        validity = getattr(certificate, "validity_problem", None)
        if validity is not None:
            problem = validity(fqdn, at)
            if problem:
                return problem
        return ""
