"""Certificate Transparency log.

Every CA in the simulation submits issued certificates here.  The log
supports the two consumer roles the paper describes: the *analysis*
role (Section 5.6.1: the full certificate timeline per domain, the
single-SAN vs multi-SAN split of Figure 20) and the *countermeasure*
role (Section 5.6.3: a domain owner monitoring the log is alerted
within hours of a hijacker's issuance).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Callable, Dict, List, Optional

from repro.dns.names import InvalidNameError, Name, is_subdomain_of, normalize_name, parent_name
from repro.pki.certificate import Certificate


@dataclass(frozen=True)
class CTLogEntry:
    """One log entry: a certificate and when it was logged."""

    certificate: Certificate
    logged_at: datetime


class CTLog:
    """Append-only certificate log with subscription support."""

    def __init__(self) -> None:
        self._entries: List[CTLogEntry] = []
        self._monitors: Dict[Name, List[Callable[[CTLogEntry], None]]] = {}
        #: Name postings: entry positions, in log order, under each
        #: exact SAN and under the normalized parent ``p`` of each
        #: wildcard SAN ``*.p``.  ``Certificate`` leaves wildcard SANs
        #: as given, so one whose parent does not normalize goes in
        #: ``_unindexed``: a candidate for every query, which
        #: ``matches`` then decides exactly as the scan did.
        self._by_san: Dict[Name, List[int]] = {}
        self._by_wildcard_parent: Dict[Name, List[int]] = {}
        self._unindexed: List[int] = []

    def submit(self, certificate: Certificate, at: datetime) -> CTLogEntry:
        """Log a certificate and fire any matching monitors."""
        entry = CTLogEntry(certificate=certificate, logged_at=at)
        position = len(self._entries)
        self._entries.append(entry)
        for san in certificate.sans:
            if not san.startswith("*."):
                self._by_san.setdefault(san, []).append(position)
                continue
            try:
                parent = normalize_name(san[2:])
            except InvalidNameError:
                self._unindexed.append(position)
                continue
            self._by_wildcard_parent.setdefault(parent, []).append(position)
        for apex, callbacks in self._monitors.items():
            if _entry_covers(entry, apex):
                for callback in callbacks:
                    callback(entry)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[CTLogEntry]:
        """All entries, oldest first."""
        return list(self._entries)

    # -- analysis queries -------------------------------------------------------

    def entries_for(self, name: Name, include_subdomains: bool = False) -> List[CTLogEntry]:
        """Entries whose certificate covers ``name`` (or names under it)."""
        normalized = normalize_name(name)
        if include_subdomains:
            return [e for e in self._entries if _entry_covers(e, normalized)]
        parent = parent_name(normalized)
        positions = set(self._by_san.get(normalized, ()))
        positions.update(self._unindexed)
        if parent is not None:
            positions.update(self._by_wildcard_parent.get(parent, ()))
        candidates = (self._entries[i] for i in sorted(positions))
        return [e for e in candidates if e.certificate.matches(normalized)]

    def first_issuance_for(self, name: Name) -> Optional[datetime]:
        """Timestamp of the earliest certificate covering ``name``."""
        matching = self.entries_for(name)
        if not matching:
            return None
        return min(entry.logged_at for entry in matching)

    # -- countermeasure (Section 5.6.3) ---------------------------------------------

    def monitor(self, apex: Name, callback: Callable[[CTLogEntry], None]) -> None:
        """Alert ``callback`` whenever a cert for ``apex`` or below is logged."""
        self._monitors.setdefault(normalize_name(apex), []).append(callback)


def _entry_covers(entry: CTLogEntry, apex: Name) -> bool:
    for san in entry.certificate.sans:
        concrete = san[2:] if san.startswith("*.") else san
        if is_subdomain_of(concrete, apex):
            return True
    return False
