"""A FarSight-style passive DNS corpus.

The paper seeds its FQDN list from high-profile apex domains and then
"discovers all subdomains observed for these domains" via FarSight
(Section 3.1).  Real passive DNS aggregates observations from resolver
sensors worldwide; here, the simulation's own resolution traffic feeds
the corpus.  Crucially, observations are *never deleted*: a subdomain
whose records were long since purged — or whose cloud resource was long
since released — stays visible, which is exactly what makes passive DNS
useful to both the researchers and the attackers.

The store keeps two query indexes (by registered domain, and by CNAME
target) because both query shapes run constantly: the collector expands
seed apexes weekly, and attacker reconnaissance reverse-maps released
cloud names to the victims still pointing at them.
"""

from __future__ import annotations

from datetime import datetime
from typing import Dict, List, Optional, Set

from repro.dns.names import Name, is_subdomain_of, normalize_name, registered_domain
from repro.dns.records import RRType, ResourceRecord
from repro.sim.windows import SweepWindow


class PassiveDNSObservation(SweepWindow):
    """Aggregated sightings of one record.

    A record that standing monitor names resolve through is re-sighted
    by every sweep without an :meth:`PassiveDNS.observe` call: its
    ``last_seen`` and ``count`` extend lazily and read exact (see
    :class:`~repro.sim.windows.SweepWindow`).
    """

    __slots__ = ("record", "first_seen")

    def __init__(
        self,
        record: ResourceRecord,
        first_seen: datetime,
        last_seen: datetime,
        count: int = 1,
    ) -> None:
        super().__init__(last_seen, count)
        self.record = record
        self.first_seen = first_seen

    last_seen = property(SweepWindow._window_last)
    count = property(SweepWindow._window_count)


class PassiveDNS:
    """Append-only observation store with FarSight-like queries."""

    def __init__(self) -> None:
        self._observations: Dict[str, PassiveDNSObservation] = {}
        self._names: Set[Name] = set()
        self._names_by_sld: Dict[Name, Set[Name]] = {}
        self._names_by_cname_target: Dict[Name, Set[Name]] = {}

    def observe(self, record: ResourceRecord, at: datetime) -> PassiveDNSObservation:
        """Record one sighting of ``record`` at time ``at``."""
        obs = self._observations.get(record.key)
        if obs is None:
            obs = PassiveDNSObservation(record=record, first_seen=at, last_seen=at)
            self._observations[record.key] = obs
            self._names.add(record.name)
            sld = registered_domain(record.name)
            if sld is not None:
                self._names_by_sld.setdefault(sld, set()).add(record.name)
            if record.rtype == RRType.CNAME:
                self._names_by_cname_target.setdefault(record.rdata, set()).add(
                    record.name
                )
        else:
            if obs._standing:
                obs.fold()
            # first_seen <= last_seen, so at most one end moves.
            if at > obs._last_seen:
                obs._last_seen = at
            elif at < obs.first_seen:
                obs.first_seen = at
            obs._count += 1
        return obs

    def observation_for(self, record: ResourceRecord) -> Optional[PassiveDNSObservation]:
        """The aggregated observation of exactly ``record``, if any."""
        return self._observations.get(record.key)

    def __len__(self) -> int:
        return len(self._observations)

    def observations_for(self, name: Name) -> List[PassiveDNSObservation]:
        """All observations whose record name is exactly ``name``."""
        normalized = normalize_name(name)
        return [o for o in self._observations.values() if o.record.name == normalized]

    def subdomains_of(self, apex: Name) -> List[Name]:
        """Every observed name at or under ``apex`` — the FarSight query.

        Sorted for determinism.  Queries at a registered domain hit the
        SLD index; anything else falls back to a full scan.
        """
        normalized = normalize_name(apex)
        if registered_domain(normalized) == normalized:
            candidates = self._names_by_sld.get(normalized, set())
            return sorted(candidates)
        suffix = "." + normalized
        return sorted(
            n for n in self._names if n == normalized or n.endswith(suffix)
        )

    def names_pointing_to(self, target: Name) -> List[Name]:
        """Observed names with a CNAME observation to ``target``.

        This is the attacker-side reconnaissance primitive: find
        domains whose CNAME points at a (possibly released) cloud name.
        """
        return sorted(self._names_by_cname_target.get(normalize_name(target), set()))

    def cname_targets(self, suffix: Optional[Name] = None) -> List[Name]:
        """Distinct CNAME targets observed, optionally under ``suffix``."""
        targets = self._names_by_cname_target.keys()
        if suffix is None:
            return sorted(targets)
        return sorted(t for t in targets if is_subdomain_of(t, suffix))
