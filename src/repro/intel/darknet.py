"""Darknet cookie-leak feed.

Section 5.5: since server-side exfiltration is invisible, the paper
looked for stolen *authentication* cookies turning up in darknet leaks
during each domain's hijack window (83 cookies, 3 subdomains, 53
victim IPs, via a threat-intel partner).  Attackers in the simulation
post cookies they capture here; the analysis side reads every leak
back and matches it to its domain's hijack window, as the collaboration
did.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import List

from repro.dns.names import Name
from repro.web.cookies import Cookie


@dataclass(frozen=True)
class CookieLeak:
    """One stolen cookie observed for sale."""

    cookie: Cookie
    domain: Name  # the hijacked FQDN the cookie was captured on
    victim_ip: str  # the victim client's address
    leaked_at: datetime


class DarknetFeed:
    """Append-only store of :class:`CookieLeak` records."""

    def __init__(self) -> None:
        self._leaks: List[CookieLeak] = []

    def post(self, leak: CookieLeak) -> None:
        """An attacker offers a stolen cookie for sale."""
        self._leaks.append(leak)

    def __len__(self) -> int:
        return len(self._leaks)

    def all_leaks(self) -> List[CookieLeak]:
        return list(self._leaks)
