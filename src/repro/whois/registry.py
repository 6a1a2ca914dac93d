"""The second-level-domain registration database."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, List, Optional

from repro.dns.names import Name, normalize_name, registered_domain


@dataclass(frozen=True)
class WhoisRecord:
    """WHOIS data for one registered domain."""

    domain: Name
    owner: str
    registrar: str
    created_at: datetime

    def age_years(self, at: datetime) -> float:
        """Domain age in (fractional) years at time ``at``."""
        return max(0.0, (at - self.created_at).days / 365.25)


class DomainRegistry:
    """Registrations keyed by second-level domain."""

    def __init__(self) -> None:
        self._records: Dict[Name, WhoisRecord] = {}

    def register(
        self, domain: Name, owner: str, registrar: str, created_at: datetime
    ) -> WhoisRecord:
        """Register ``domain``; double registration is an error."""
        normalized = normalize_name(domain)
        if normalized in self._records:
            raise ValueError(f"{normalized} is already registered")
        record = WhoisRecord(
            domain=normalized, owner=owner, registrar=registrar, created_at=created_at
        )
        self._records[normalized] = record
        return record

    def lookup(self, name: Name) -> Optional[WhoisRecord]:
        """WHOIS for the registered domain containing ``name``.

        Accepts any FQDN: the query is made at its registrable domain,
        as real WHOIS clients do for subdomains.
        """
        base = registered_domain(name)
        if base is None:
            base = normalize_name(name)
        return self._records.get(base)

    def owner_of(self, name: Name) -> Optional[str]:
        record = self.lookup(name)
        return record.owner if record else None

    def all_records(self) -> List[WhoisRecord]:
        """Every registration, sorted by domain."""
        return [self._records[k] for k in sorted(self._records)]

    def __len__(self) -> int:
        return len(self._records)
