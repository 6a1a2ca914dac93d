"""Authoritative zones with timestamped mutation history.

The hijack-duration analysis (Section 4.4) computes the lifespan of an
abuse as the time between the first abusive HTML snapshot and the DNS
change the owner eventually makes to fix the dangling record.  Zones
therefore keep a full change history, not just current state.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dns.names import Name, is_subdomain_of, normalize_name, parent_name
from repro.dns.records import RRType, ResourceRecord
from repro.obs import OBS
from repro.sim.revisions import RevisionJournal


#: Journal key (under kind ``"dns"``) bumped whenever the zone *set*
#: changes — registering a new zone can re-route any name.
ZONE_SET_KEY = "__zones__"


@dataclass(frozen=True)
class ZoneChange:
    """One mutation of a zone: a record added or removed at a time."""

    at: datetime
    action: str  # "add" | "remove"
    record: ResourceRecord


class Zone:
    """All records at or below an apex name, with history."""

    def __init__(self, apex: Name, journal: Optional[RevisionJournal] = None):
        self.apex = normalize_name(apex)
        self._records: Dict[Tuple[Name, RRType], List[ResourceRecord]] = {}
        self._history: List[ZoneChange] = []
        self._record_counts: Dict[Name, int] = {}
        #: Memo of (name, rtype) → lookup result, cleared on mutation.
        #: Weekly sweeps re-query the same (mostly unchanged) names, and
        #: wildcard answers synthesize a record object per query without
        #: it; memoized, the same synthesized record is reused until the
        #: zone next changes.
        self._lookup_cache: Dict[Tuple[Name, RRType], List[ResourceRecord]] = {}
        #: Monotonic mutation counter.  Resolution memos snapshot it and
        #: revalidate on every hit, so a stale answer can never outlive
        #: the zone change that invalidated it.
        self.version = 0
        #: Per-name revisions live in the world-wide journal under
        #: ``("dns", name)``.  A ``lookup``/``name_exists`` outcome for
        #: ``name`` is fully pinned by the revisions of ``name`` itself
        #: and of its wildcard key ``*.parent(name)``, so memos
        #: validated at this granularity survive the weekly churn of
        #: *other* names in a big shared provider zone.  An unshared
        #: private journal keeps standalone zones self-contained.
        self.journal = journal if journal is not None else RevisionJournal()

    # -- queries ----------------------------------------------------------

    def covers(self, name: Name) -> bool:
        """Whether ``name`` falls inside this zone's namespace."""
        return is_subdomain_of(name, self.apex)

    def lookup(self, name: Name, rtype: RRType) -> List[ResourceRecord]:
        """Current records of ``rtype`` at ``name`` (possibly empty).

        Supports one-level DNS wildcards: with ``*.zone.example A x``
        present and no exact records at ``foo.zone.example``, the
        wildcard synthesizes an answer for the queried name.  Cloud
        services like S3 static hosting publish exactly such wildcards,
        which is why a deleted bucket's domain keeps resolving and
        serving the provider 404 page.
        """
        normalized = normalize_name(name)
        cached = self._lookup_cache.get((normalized, rtype))
        if cached is not None:
            if OBS.enabled:
                OBS.metrics.inc("zone.lookup.memo_hits")
            return list(cached)
        if OBS.enabled:
            OBS.metrics.inc("zone.lookup.memo_misses")
        result: List[ResourceRecord] = []
        exact = self._records.get((normalized, rtype))
        if exact:
            result = list(exact)
        elif self._record_counts.get(normalized, 0) > 0:
            pass  # name exists with other types: wildcard never applies
        else:
            parent = parent_name(normalized)
            if parent is not None and not normalized.startswith("*."):
                wildcard = self._records.get((f"*.{parent}", rtype))
                if wildcard:
                    result = [
                        ResourceRecord(name=normalized, rtype=rtype, rdata=record.rdata)
                        for record in wildcard
                    ]
        self._lookup_cache[(normalized, rtype)] = result
        return list(result)

    def name_version(self, name: Name) -> int:
        """Mutation counter for ``name`` alone (0 = never mutated)."""
        return self.journal.revision("dns", name)

    def name_exists(self, name: Name) -> bool:
        """Whether any record type currently exists at ``name``."""
        return self._record_counts.get(normalize_name(name), 0) > 0

    def names(self) -> Set[Name]:
        """All names that currently own at least one record."""
        return {name for name, count in self._record_counts.items() if count > 0}

    def all_records(self) -> List[ResourceRecord]:
        """Every current record in the zone."""
        out: List[ResourceRecord] = []
        for records in self._records.values():
            out.extend(records)
        return out

    @property
    def history(self) -> List[ZoneChange]:
        """The full mutation history, oldest first."""
        return list(self._history)

    # -- mutation ----------------------------------------------------------

    def add(self, record: ResourceRecord, at: datetime) -> ResourceRecord:
        """Add ``record`` at simulated time ``at``.

        Adding an identical record twice is an error; CNAME records are
        exclusive at a name, as in real DNS.
        """
        if not self.covers(record.name):
            raise ValueError(f"{record.name} is outside zone {self.apex}")
        if record.rtype == RRType.CNAME and self.lookup(record.name, RRType.CNAME):
            raise ValueError(f"{record.name} already has a CNAME")
        bucket = self._records.setdefault((record.name, record.rtype), [])
        if record in bucket:
            raise ValueError(f"duplicate record {record}")
        bucket.append(record)
        self._record_counts[record.name] = self._record_counts.get(record.name, 0) + 1
        self._history.append(ZoneChange(at=at, action="add", record=record))
        self._lookup_cache.clear()
        self.version += 1
        self.journal.bump("dns", record.name)
        return record

    def remove(self, record: ResourceRecord, at: datetime) -> None:
        """Remove ``record`` at simulated time ``at``."""
        bucket = self._records.get((record.name, record.rtype))
        if not bucket or record not in bucket:
            raise ValueError(f"record not present: {record}")
        bucket.remove(record)
        self._record_counts[record.name] -= 1
        self._history.append(ZoneChange(at=at, action="remove", record=record))
        self._lookup_cache.clear()
        self.version += 1
        self.journal.bump("dns", record.name)

    def remove_all(self, name: Name, rtype: RRType, at: datetime) -> int:
        """Remove every ``rtype`` record at ``name``; returns the count."""
        removed = 0
        for record in self.lookup(name, rtype):
            self.remove(record, at)
            removed += 1
        return removed

    def replace(
        self, name: Name, rtype: RRType, rdata: str, at: datetime
    ) -> ResourceRecord:
        """Replace all ``rtype`` records at ``name`` with a single one."""
        self.remove_all(name, rtype, at)
        return self.add(ResourceRecord(name=name, rtype=rtype, rdata=rdata), at)


class ZoneRegistry:
    """The set of authoritative zones making up the simulated DNS.

    Lookup picks the zone with the longest matching apex, mirroring
    delegation: ``example.azurewebsites.net`` matches the provider zone
    ``azurewebsites.net`` rather than ``net``.
    """

    def __init__(self, journal: Optional[RevisionJournal] = None) -> None:
        #: Shared revision journal handed to every zone this registry
        #: creates; a private one keeps standalone registries working.
        self.journal = journal if journal is not None else RevisionJournal()
        self._zones: Dict[Name, Zone] = {}
        #: Memo of name → covering zone (``None`` = no zone covers it),
        #: invalidated whenever a zone is registered.  Zone *content*
        #: changes never move a name between zones, so registration is
        #: the only invalidation point.
        self._zone_for: Dict[Name, Optional[Zone]] = {}
        #: Monotonic registration counter — bumps when the zone *set*
        #: changes, which is the only event that can move a name between
        #: zones (or from "no covering zone" to covered).
        self.version = 0

    def create_zone(self, apex: Name) -> Zone:
        """Create and register an empty zone at ``apex``."""
        normalized = normalize_name(apex)
        if normalized in self._zones:
            raise ValueError(f"zone {normalized} already exists")
        zone = Zone(normalized, journal=self.journal)
        self._zones[normalized] = zone
        # A new zone may now be the most specific cover for previously
        # memoized names (including negative entries): drop the memo.
        self._zone_for.clear()
        self.version += 1
        # The zone *set* changing can re-route any name's resolution,
        # so it is a change signal of its own.
        self.journal.bump("dns", ZONE_SET_KEY)
        return zone

    def get_zone(self, apex: Name) -> Optional[Zone]:
        """The zone registered exactly at ``apex``, or ``None``."""
        return self._zones.get(normalize_name(apex))

    def zone_for(self, name: Name) -> Optional[Zone]:
        """The most specific zone whose namespace contains ``name``.

        Walks the suffixes of ``name`` from longest to shortest, so the
        cost is O(label count), not O(zone count).
        """
        normalized = normalize_name(name)
        if normalized in self._zone_for:
            if OBS.enabled:
                OBS.metrics.inc("zone.zone_for.memo_hits")
            return self._zone_for[normalized]
        if OBS.enabled:
            OBS.metrics.inc("zone.zone_for.memo_misses")
        labels = normalized.split(".")
        zone = None
        for start in range(len(labels)):
            zone = self._zones.get(".".join(labels[start:]))
            if zone is not None:
                break
        self._zone_for[normalized] = zone
        return zone

    def zones(self) -> Iterable[Zone]:
        """All registered zones."""
        return list(self._zones.values())

    def __len__(self) -> int:
        return len(self._zones)
