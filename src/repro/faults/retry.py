"""The resilience layer: retry policies and per-edge circuit breakers.

A production measurement pipeline does not take one transient SERVFAIL
or 503 as the truth about an FQDN — it retries with capped exponential
backoff, and it stops hammering an edge that has failed many times in a
row until a cooldown passes.  Both mechanisms here are deterministic:
backoff jitter comes from a seeded stream, and breaker state advances
on the *simulated* clock, so chaos runs replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Dict, List, Optional, Tuple

from repro.obs import OBS


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff.

    ``max_attempts=1`` means no retries — the default everywhere, so a
    policy-free configuration is behaviourally identical to the
    pre-resilience pipeline.  Delays are *simulated* seconds: retry
    attempts are stamped ``base + delay`` on the simulation clock, never
    the wall clock.
    """

    max_attempts: int = 1
    base_delay_s: float = 2.0
    max_delay_s: float = 120.0
    multiplier: float = 2.0
    #: Jitter as a fraction of the delay (0.25 → ±25%), drawn from a
    #: deterministic stream when one is provided.
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """No retries: one attempt, fail fast."""
        return cls(max_attempts=1)

    @classmethod
    def standard(cls, attempts: int = 3) -> "RetryPolicy":
        """The default resilient profile: 2s base, doubling, 2min cap."""
        return cls(max_attempts=attempts)

    def backoff_delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Simulated seconds to wait after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        delay = min(self.max_delay_s, self.base_delay_s * self.multiplier ** (attempt - 1))
        if rng is not None and self.jitter > 0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


#: Circuit states, in the classic three-state protocol.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass
class _EdgeCircuit:
    """Breaker state for one provider edge."""

    state: str = CLOSED
    consecutive_failures: int = 0
    opened_at: Optional[datetime] = None
    #: A HALF_OPEN trial probe is in flight: further callers keep
    #: short-circuiting until its outcome lands.
    trial_pending: bool = False


class CircuitBreaker:
    """Per-provider-edge circuit breaker keyed by edge address.

    Trips to OPEN after ``failure_threshold`` consecutive failures
    against the same edge; while open, callers short-circuit without
    touching the edge.  After ``cooldown`` of simulated time (one week
    by default — the pipeline's natural cadence) the circuit half-opens:
    the next attempt is allowed through as a trial, and its outcome
    either closes the circuit or re-opens it for another cooldown.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: timedelta = timedelta(weeks=1),
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._circuits: Dict[str, _EdgeCircuit] = {}
        #: Total number of CLOSED/HALF_OPEN → OPEN transitions.
        self.trips = 0

    def _circuit(self, key: str) -> _EdgeCircuit:
        circuit = self._circuits.get(key)
        if circuit is None:
            circuit = _EdgeCircuit()
            self._circuits[key] = circuit
        return circuit

    def allow(self, key: str, at: datetime) -> bool:
        """Whether a request to edge ``key`` may proceed at time ``at``."""
        circuit = self._circuits.get(key)
        if circuit is None or circuit.state == CLOSED:
            return True
        if circuit.state == HALF_OPEN:
            # Exactly one trial probe may be in flight at a time; its
            # outcome (record_success / record_failure) decides the
            # circuit before anyone else gets through.
            if circuit.trial_pending:
                return False
            circuit.trial_pending = True
            return True
        if circuit.opened_at is None or at >= circuit.opened_at + self.cooldown:
            # ``opened_at is None`` means the open instant was lost;
            # fail open into a single trial probe rather than
            # short-circuiting this edge forever.
            circuit.state = HALF_OPEN
            circuit.trial_pending = True
            if OBS.enabled:
                OBS.metrics.inc("breaker.half_open", edge=key)
            return True
        return False

    def record_success(self, key: str) -> None:
        """A request to ``key`` succeeded: close the circuit."""
        circuit = self._circuits.get(key)
        if circuit is None:
            return
        if circuit.state != CLOSED and OBS.enabled:
            OBS.metrics.inc("breaker.close", edge=key)
        circuit.state = CLOSED
        circuit.consecutive_failures = 0
        circuit.opened_at = None
        circuit.trial_pending = False

    def record_failure(self, key: str, at: datetime) -> None:
        """A request to ``key`` failed: count it, trip when over threshold."""
        circuit = self._circuit(key)
        if circuit.state == HALF_OPEN:
            # Failed trial: straight back to OPEN for another cooldown.
            circuit.state = OPEN
            circuit.opened_at = at
            circuit.trial_pending = False
            self.trips += 1
            if OBS.enabled:
                OBS.metrics.inc("breaker.open", edge=key)
            return
        circuit.consecutive_failures += 1
        if circuit.state == CLOSED and circuit.consecutive_failures >= self.failure_threshold:
            circuit.state = OPEN
            circuit.opened_at = at
            self.trips += 1
            if OBS.enabled:
                OBS.metrics.inc("breaker.open", edge=key)

    # -- introspection ---------------------------------------------------

    def state_of(self, key: str) -> str:
        circuit = self._circuits.get(key)
        return circuit.state if circuit is not None else CLOSED

    def rows(self) -> List[Tuple[str, str, int]]:
        """Render-ready (edge, state, consecutive failures) rows."""
        return sorted(
            (key, circuit.state, circuit.consecutive_failures)
            for key, circuit in self._circuits.items()
            if circuit.state != CLOSED or circuit.consecutive_failures
        )
