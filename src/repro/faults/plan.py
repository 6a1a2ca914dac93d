"""Seeded, deterministic fault injection for the measurement path.

The paper's pipeline ran weekly for three years against a hostile
Internet: resolvers time out, edges rate-limit, half-dead virtual hosts
return 5xx pages or drop connections mid-body.  A :class:`FaultPlan`
reproduces that hostility *deterministically*: every injection decision
is a draw from a named :class:`~repro.sim.rng.RngStreams` stream, so a
single fault seed replays the exact same storm — two runs with the same
seed produce byte-identical datasets, quarantine sets and retry
counters, which is what makes chaos runs regression-testable.

Each layer draws from its own stream (``faults:dns``, ``faults:net``,
``faults:http``) so enabling injection at one layer never perturbs the
decision sequence of another.  A disabled plan (or a zero-rate fault
class) performs *no* draws at all, guaranteeing golden-digest parity
with fault-free runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim.rng import RngStreams

#: DNS fault kinds a plan can inject into the resolver.
DNS_SERVFAIL = "dns-servfail"
DNS_TIMEOUT = "dns-timeout"
#: Transport fault kinds injected into the network / probing layer.
CONNECTION_RESET = "connection-reset"
ICMP_BLACKOUT = "icmp-blackout"
#: Application fault kinds injected into edges and the HTTP client.
HTTP_503 = "http-503"
HTTP_429 = "http-429"
TRUNCATED_BODY = "truncated-body"


@dataclass
class FaultConfig:
    """Per-fault-class injection rates (all probabilities per operation).

    The default is fully quiescent: ``enabled`` off and every rate zero,
    so a default-configured scenario is byte-identical to one with no
    fault plan at all.
    """

    enabled: bool = False
    #: Independent seed for the fault streams; ``None`` derives the
    #: streams from the scenario master seed (one seed replays world
    #: *and* weather), a fixed value varies the weather independently.
    fault_seed: Optional[int] = None
    dns_servfail_rate: float = 0.0
    dns_timeout_rate: float = 0.0
    connection_reset_rate: float = 0.0
    icmp_blackout_rate: float = 0.0
    http_503_rate: float = 0.0
    http_429_rate: float = 0.0
    truncated_body_rate: float = 0.0

    @classmethod
    def chaos(cls, level: float = 0.05, seed: Optional[int] = None) -> "FaultConfig":
        """A balanced storm: every fault class at ``level`` intensity.

        ``level`` is the per-operation injection probability of the most
        common faults; rarer classes (truncation, blackout) scale down.
        """
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"fault level must be in [0, 1], got {level}")
        return cls(
            enabled=level > 0.0,
            fault_seed=seed,
            dns_servfail_rate=level,
            dns_timeout_rate=level / 2,
            connection_reset_rate=level / 2,
            icmp_blackout_rate=level / 4,
            http_503_rate=level,
            http_429_rate=level / 2,
            truncated_body_rate=level / 4,
        )

    @property
    def dns_active(self) -> bool:
        return self.enabled and (self.dns_servfail_rate > 0 or self.dns_timeout_rate > 0)

    @property
    def net_active(self) -> bool:
        return self.enabled and (
            self.connection_reset_rate > 0 or self.icmp_blackout_rate > 0
        )

    @property
    def http_active(self) -> bool:
        return self.enabled and (self.http_503_rate > 0 or self.http_429_rate > 0)

    @property
    def truncation_active(self) -> bool:
        return self.enabled and self.truncated_body_rate > 0

    @property
    def any_active(self) -> bool:
        return self.dns_active or self.net_active or self.http_active or self.truncation_active


@dataclass
class FaultStats:
    """Counters of what a plan actually injected, by fault kind."""

    injected: Dict[str, int] = field(default_factory=dict)

    def count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.injected.values())

    def rows(self) -> List[Tuple[str, int]]:
        """Render-ready (kind, count) rows, sorted by kind."""
        return sorted(self.injected.items())


class FaultPlan:
    """The active injection engine consulted by every measurement layer.

    One plan is shared by the resolver, the network/probers, the
    virtual-hosting edges and the HTTP client of one simulated world.
    Decisions are pure functions of the stream state, so a fixed seed
    plus a fixed call sequence (the simulation is single-threaded and
    deterministic) replays identically.
    """

    def __init__(self, config: FaultConfig, streams: RngStreams):
        self.config = config
        self.stats = FaultStats()
        self._dns = streams.get("faults:dns")
        self._net = streams.get("faults:net")
        self._http = streams.get("faults:http")
        #: Deterministic jitter source for retry backoff (kept on the
        #: plan so retries under chaos replay exactly).
        self.retry_rng = streams.get("faults:retry-jitter")
        self._suppress = 0

    @classmethod
    def from_seed(cls, config: FaultConfig, seed: int) -> "FaultPlan":
        return cls(config, RngStreams(seed))

    # -- control-plane suppression ---------------------------------------

    @property
    def active(self) -> bool:
        """Whether injection is currently live (not suppressed)."""
        return self._suppress == 0

    @contextmanager
    def suppressed(self) -> Iterator[None]:
        """Disable injection for a control-plane operation.

        Faults model a hostile *measurement* path; the substrate's own
        control plane — a provider validating a CNAME against its
        authoritative view, a CA fetching its challenge token over its
        own egress — does not ride the victim's flaky last mile.  Calls
        made under suppression draw nothing from the fault streams, so
        they leave the injection sequence untouched.
        """
        self._suppress += 1
        try:
            yield
        finally:
            self._suppress -= 1

    # -- DNS layer -------------------------------------------------------

    def dns_fault(self, qname: str) -> Optional[str]:
        """Fault for one resolution: ``"servfail"``, ``"timeout"`` or None."""
        if self._suppress or not self.config.dns_active:
            return None
        roll = self._dns.random()
        if roll < self.config.dns_servfail_rate:
            self.stats.count(DNS_SERVFAIL)
            return "servfail"
        if roll < self.config.dns_servfail_rate + self.config.dns_timeout_rate:
            self.stats.count(DNS_TIMEOUT)
            return "timeout"
        return None

    # -- transport layer -------------------------------------------------

    def connection_reset(self, ip: str) -> bool:
        """Whether this TCP connection attempt gets reset mid-handshake."""
        if self._suppress or not self.config.net_active or self.config.connection_reset_rate <= 0:
            return False
        if self._net.random() < self.config.connection_reset_rate:
            self.stats.count(CONNECTION_RESET)
            return True
        return False

    def icmp_blackout(self, ip: str) -> bool:
        """Whether an ICMP echo to ``ip`` is silently dropped."""
        if self._suppress or not self.config.net_active or self.config.icmp_blackout_rate <= 0:
            return False
        if self._net.random() < self.config.icmp_blackout_rate:
            self.stats.count(ICMP_BLACKOUT)
            return True
        return False

    # -- application layer -----------------------------------------------

    def http_fault(self, provider: str, host: str) -> Optional[str]:
        """Edge-side fault for one request: ``"503"``, ``"429"`` or None."""
        if self._suppress or not self.config.http_active:
            return None
        roll = self._http.random()
        if roll < self.config.http_503_rate:
            self.stats.count(HTTP_503)
            return "503"
        if roll < self.config.http_503_rate + self.config.http_429_rate:
            self.stats.count(HTTP_429)
            return "429"
        return None

    def truncated_body(self, host: str) -> bool:
        """Whether the response body gets cut off mid-transfer."""
        if self._suppress or not self.config.truncation_active:
            return False
        if self._http.random() < self.config.truncated_body_rate:
            self.stats.count(TRUNCATED_BODY)
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FaultPlan(enabled={self.config.enabled}, injected={self.stats.total})"
