"""The monetization ecosystem (Section 5.3, Figure 24).

The hijacks exist to make money: doorway pages relay visitors to a
gambling site with a referral code attached; the site's traffic
accounting pays the hijacker per page view, more per account sign-up,
and a share of money spent.  The referral ID also shows that site
operator and hijacker are *different entities* — an ecosystem, not one
actor.  :class:`MonetizationLedger` is that accounting backend;
:class:`GamblingSiteOperator` wires it behind the monetized URLs so
simulated click-throughs generate revenue events.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, List, Optional, Tuple

#: Payout schedule per referral event (USD) — page views are worth
#: little, sign-ups much more, deposits a revenue share.
DEFAULT_RATES = {"view": 0.002, "signup": 5.0, "deposit": 25.0}


@dataclass(frozen=True)
class ReferralEvent:
    """One paid event attributed to a referral code."""

    referral_code: str
    kind: str  # "view" | "signup" | "deposit"
    at: datetime
    source_fqdn: str = ""
    payout_usd: float = 0.0


class MonetizationLedger:
    """Traffic accounting for one paymaster site."""

    def __init__(self, rates: Optional[Dict[str, float]] = None):
        self.rates = dict(rates or DEFAULT_RATES)
        self._events: List[ReferralEvent] = []

    def record(
        self, referral_code: str, kind: str, at: datetime, source_fqdn: str = ""
    ) -> ReferralEvent:
        """Attribute one event to a referral code."""
        if kind not in self.rates:
            raise ValueError(f"unknown event kind {kind!r}")
        event = ReferralEvent(
            referral_code=referral_code, kind=kind, at=at,
            source_fqdn=source_fqdn, payout_usd=self.rates[kind],
        )
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[ReferralEvent]:
        return list(self._events)

    def payouts(self) -> List[Tuple[str, float]]:
        """Per-code payouts, highest first."""
        totals: Dict[str, float] = {}
        for event in self._events:
            totals[event.referral_code] = (
                totals.get(event.referral_code, 0.0) + event.payout_usd
            )
        return sorted(totals.items(), key=lambda kv: -kv[1])

    def event_counts(self, referral_code: Optional[str] = None) -> Dict[str, int]:
        """Event-kind histogram, optionally for one code."""
        counts: Dict[str, int] = {}
        for event in self._events:
            if referral_code is not None and event.referral_code != referral_code:
                continue
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def top_referring_domains(self, limit: int = 10) -> List[Tuple[str, int]]:
        """Which hijacked domains drive the traffic."""
        counts: Dict[str, int] = {}
        for event in self._events:
            if event.source_fqdn:
                counts[event.source_fqdn] = counts.get(event.source_fqdn, 0) + 1
        return sorted(counts.items(), key=lambda kv: -kv[1])[:limit]


class GamblingSiteOperator:
    """The paymaster: receives relayed visitors, pays per referral.

    Click-through behaviour: every arrival is a paid page view; a share
    of visitors registers an account; a share of those deposits money.
    """

    def __init__(
        self,
        ledger: MonetizationLedger,
        rng,
        signup_rate: float = 0.05,
        deposit_rate: float = 0.4,
    ):
        self.ledger = ledger
        self._rng = rng
        self.signup_rate = signup_rate
        self.deposit_rate = deposit_rate

    def receive_visit(
        self, referral_code: str, at: datetime, source_fqdn: str = ""
    ) -> List[ReferralEvent]:
        """Process one relayed visitor; returns the paid events."""
        events = [self.ledger.record(referral_code, "view", at, source_fqdn)]
        if self._rng.random() < self.signup_rate:
            events.append(self.ledger.record(referral_code, "signup", at, source_fqdn))
            if self._rng.random() < self.deposit_rate:
                events.append(
                    self.ledger.record(referral_code, "deposit", at, source_fqdn)
                )
        return events


class MonetizationEcosystem:
    """All paymaster sites plus one shared accounting view.

    The simulation's browsing users hand clicked URLs here; referral
    links are routed to (lazily created) site operators that share one
    ledger, so analyses can see the whole revenue stream at once.
    """

    def __init__(self, rng):
        self._rng = rng
        self.ledger = MonetizationLedger()
        self._operators: Dict[str, GamblingSiteOperator] = {}

    def operator_for(self, base_url: str) -> GamblingSiteOperator:
        operator = self._operators.get(base_url)
        if operator is None:
            operator = GamblingSiteOperator(self.ledger, self._rng)
            self._operators[base_url] = operator
        return operator

    def handle_click(self, url: str, at: datetime, source_fqdn: str = "") -> bool:
        """Route one clicked URL; returns True if it paid someone."""
        parsed = parse_referral(url)
        if parsed is None:
            return False
        base, code = parsed
        self.operator_for(base).receive_visit(code, at, source_fqdn)
        return True

    @property
    def operator_count(self) -> int:
        return len(self._operators)


def parse_referral(url: str) -> Optional[Tuple[str, str]]:
    """Extract ``(base_url, referral_code)`` from a monetized link."""
    if "?ref=" not in url and "&ref=" not in url:
        return None
    separator = "?ref=" if "?ref=" in url else "&ref="
    base, _, rest = url.partition(separator)
    code = rest.split("&")[0]
    return (base, code) if code else None
