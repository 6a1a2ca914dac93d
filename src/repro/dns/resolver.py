"""Recursive resolution with CNAME chain following.

Algorithm 1 issues an A query per FQDN and inspects both the CNAME
chain and the terminal A records.  The resolver implements standard
semantics: chains are followed across zones, a missing name yields
NXDOMAIN, an existing name without the queried type yields NODATA, and
loops or over-long chains yield SERVFAIL.  Every successful lookup can
be mirrored into a :class:`~repro.dns.passive_dns.PassiveDNS` feed,
which is how the simulated FarSight corpus gets populated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime
from typing import List, Optional

from repro.dns.names import Name, normalize_name, parent_name
from repro.dns.passive_dns import PassiveDNS
from repro.dns.records import RRType, ResourceRecord
from repro.dns.zone import ZoneRegistry
from repro.obs import OBS

#: RFC-ish bound on chain length before we declare a loop.
MAX_CHAIN_LENGTH = 16


class ResolutionStatus(enum.Enum):
    """Final status of a resolution."""

    NOERROR = "NOERROR"
    NXDOMAIN = "NXDOMAIN"
    NODATA = "NODATA"
    SERVFAIL = "SERVFAIL"
    #: The query never came back (transient resolver/path failure) —
    #: only ever produced by an injected fault, never by zone state.
    TIMEOUT = "TIMEOUT"


@dataclass
class ResolutionResult:
    """Everything a client learns from one query.

    ``cname_chain`` lists the CNAME targets traversed, in order; the
    paper's suffix matching runs over exactly this list.  ``records``
    holds the terminal records of the queried type (A records for the
    usual Algorithm-1 query).
    """

    qname: Name
    qtype: RRType
    status: ResolutionStatus
    cname_chain: List[Name] = field(default_factory=list)
    records: List[ResourceRecord] = field(default_factory=list)

    @property
    def addresses(self) -> List[str]:
        """The rdata of terminal A/AAAA records."""
        return [r.rdata for r in self.records if r.rtype in (RRType.A, RRType.AAAA)]

    @property
    def ok(self) -> bool:
        """Whether the query produced usable answers."""
        return self.status == ResolutionStatus.NOERROR and bool(self.records)


class Resolver:
    """A recursive resolver over a :class:`ZoneRegistry`.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`, duck-typed) lets
    a chaos run inject transient SERVFAILs and timeouts *before* zone
    lookup — the flaky-recursive behaviour a longitudinal pipeline must
    survive.  Injected failures record no passive-DNS observations, as
    a real failed query would not.
    """

    def __init__(
        self,
        zones: ZoneRegistry,
        passive_dns: Optional[PassiveDNS] = None,
        fault_plan=None,
    ):
        self._zones = zones
        self._passive_dns = passive_dns
        self.fault_plan = fault_plan
        #: Memo of (qname, qtype) → finished walk, used only after
        #: :meth:`enable_memo`.  The weekly sweep re-resolves the same
        #: mostly-unchanged names thousands of times; a memo entry pins
        #: every *name* the walk consulted — the per-name mutation
        #: versions of the name and its wildcard key, plus which zone
        #: covered it — and is discarded the moment any of them has
        #: moved on.  Per-name granularity matters: one record churned
        #: in a shared provider zone (or a new unrelated zone
        #: registered) must not evict the thousands of sibling entries
        #: a whole-zone version would.  Hits replay the identical
        #: passive-DNS observations the walk would have made, so the
        #: corpus the dataset exports is byte-for-byte unaffected.
        self._memo: dict = {}
        self._memo_enabled = False

    def enable_memo(self) -> None:
        """Turn on version-validated resolution memoization.

        Off by default so the generic sampler — chaos runs and the
        serial test oracle — keeps its exact cost profile; healthy
        sweep shards switch it on as part of the fused path.
        """
        self._memo_enabled = True

    @property
    def passive_dns(self) -> Optional[PassiveDNS]:
        """The feed successful lookups mirror into (swappable, so
        ``run_analyses`` can detach it while analyses resolve names)."""
        return self._passive_dns

    @passive_dns.setter
    def passive_dns(self, feed: Optional[PassiveDNS]) -> None:
        self._passive_dns = feed

    def resolve(
        self, qname: Name, qtype: RRType = RRType.A, at: Optional[datetime] = None
    ) -> ResolutionResult:
        """Resolve ``qname``/``qtype``, following CNAMEs.

        ``at`` is the simulated query time; when given together with a
        passive DNS feed, observations are recorded.
        """
        qname = normalize_name(qname)
        if OBS.enabled:
            OBS.metrics.inc("resolver.queries")
        if self.fault_plan is not None:
            fault = self.fault_plan.dns_fault(str(qname))
            if fault is not None:
                status = (
                    ResolutionStatus.TIMEOUT
                    if fault == "timeout"
                    else ResolutionStatus.SERVFAIL
                )
                return ResolutionResult(qname, qtype, status)
        if not self._memo_enabled:
            # Deliberately duplicates _walk without the touched/observed
            # bookkeeping: the default path must keep the seed's exact
            # cost profile, not pay for a memo it never consults.
            chain: List[Name] = []
            current = qname
            seen = {current}
            while True:
                zone = self._zones.zone_for(current)
                if zone is None:
                    return ResolutionResult(
                        qname, qtype, ResolutionStatus.NXDOMAIN, chain
                    )
                direct = zone.lookup(current, qtype)
                if direct:
                    self._observe(direct, at)
                    return ResolutionResult(
                        qname, qtype, ResolutionStatus.NOERROR, chain, direct
                    )
                cnames = (
                    [] if qtype == RRType.CNAME else zone.lookup(current, RRType.CNAME)
                )
                if cnames:
                    self._observe(cnames, at)
                    target = cnames[0].rdata
                    chain.append(target)
                    if target in seen or len(chain) > MAX_CHAIN_LENGTH:
                        return ResolutionResult(
                            qname, qtype, ResolutionStatus.SERVFAIL, chain
                        )
                    seen.add(target)
                    current = target
                    continue
                if zone.name_exists(current):
                    return ResolutionResult(
                        qname, qtype, ResolutionStatus.NODATA, chain
                    )
                return ResolutionResult(qname, qtype, ResolutionStatus.NXDOMAIN, chain)
        key = (qname, qtype)
        memo = self._memo.get(key)
        if memo is not None and self._memo_valid(memo):
            if OBS.enabled:
                OBS.metrics.inc("resolver.memo.hits")
                OBS.metrics.observe("resolver.chain_depth", len(memo[3]))
            status, chain, records, observed = memo[2], memo[3], memo[4], memo[5]
            for group in observed:
                self._observe(group, at)
            return ResolutionResult(
                qname, qtype, status, list(chain), list(records)
            )
        if OBS.enabled:
            OBS.metrics.inc("resolver.memo.misses")
            if memo is not None:
                # An entry existed but a zone change invalidated it: the
                # fresh walk below overwrites it — an eviction.
                OBS.metrics.inc("resolver.memo.evictions")
        registry_version = self._zones.version
        result, touched, observed = self._walk(qname, qtype, at)
        # A list, not a tuple: a still-valid entry refreshes its
        # registry-version snapshot in place, keeping the identity that
        # higher-level caches (the shard touch memo) key on.
        self._memo[key] = [
            registry_version,
            touched,
            result.status,
            tuple(result.cname_chain),
            tuple(result.records),
            observed,
        ]
        if OBS.enabled:
            OBS.metrics.observe("resolver.chain_depth", len(result.cname_chain))
        return result

    def _memo_valid(self, entry) -> bool:
        """Whether a fresh walk would provably repeat ``entry``.

        Each touched tuple is ``(zone, name, name_ver, wkey, wkey_ver)``
        — the zone that covered ``name`` (``None`` for an uncovered
        NXDOMAIN) and the per-name mutation versions of the name and its
        wildcard key, which together pin every ``lookup``/``name_exists``
        outcome the walk saw.  While the registry version is unchanged
        no name can have moved between zones, so only the name versions
        need checking; after a zone registration the cover is
        re-established per name via the registry's ``zone_for`` memo,
        and the entry's registry snapshot is refreshed in place so
        subsequent hits take the cheap path again.
        """
        stale_registry = entry[0] != self._zones.version
        for zone, name, name_ver, wkey, wkey_ver in entry[1]:
            if stale_registry and self._zones.zone_for(name) is not zone:
                return False
            if zone is not None:
                if zone.name_version(name) != name_ver:
                    return False
                if wkey is not None and zone.name_version(wkey) != wkey_ver:
                    return False
        if stale_registry:
            entry[0] = self._zones.version
        return True

    def _walk(self, qname: Name, qtype: RRType, at: Optional[datetime]):
        """The actual chain walk; returns (result, touched, observed).

        ``touched`` is one ``(zone, name, name_ver, wkey, wkey_ver)``
        tuple per name consulted (see :meth:`_memo_valid`), and
        ``observed`` the record groups mirrored into passive DNS, in
        order — exactly what a memo hit must revalidate and replay.
        """
        touched: List = []
        observed: List = []
        chain: List[Name] = []
        current = qname
        seen = {current}
        while True:
            current = normalize_name(current)
            zone = self._zones.zone_for(current)
            if zone is None:
                touched.append((None, current, 0, None, 0))
                return (
                    ResolutionResult(qname, qtype, ResolutionStatus.NXDOMAIN, chain),
                    tuple(touched), tuple(observed),
                )
            if current.startswith("*."):
                wkey = None
                wkey_ver = 0
            else:
                parent = parent_name(current)
                wkey = f"*.{parent}" if parent is not None else None
                wkey_ver = zone.name_version(wkey) if wkey is not None else 0
            touched.append(
                (zone, current, zone.name_version(current), wkey, wkey_ver)
            )
            direct = zone.lookup(current, qtype)
            if direct:
                self._observe(direct, at)
                observed.append(tuple(direct))
                return (
                    ResolutionResult(
                        qname, qtype, ResolutionStatus.NOERROR, chain, direct
                    ),
                    tuple(touched), tuple(observed),
                )
            cnames = [] if qtype == RRType.CNAME else zone.lookup(current, RRType.CNAME)
            if cnames:
                self._observe(cnames, at)
                observed.append(tuple(cnames))
                target = cnames[0].rdata
                chain.append(target)
                if target in seen or len(chain) > MAX_CHAIN_LENGTH:
                    return (
                        ResolutionResult(
                            qname, qtype, ResolutionStatus.SERVFAIL, chain
                        ),
                        tuple(touched), tuple(observed),
                    )
                seen.add(target)
                current = target
                continue
            if zone.name_exists(current):
                return (
                    ResolutionResult(qname, qtype, ResolutionStatus.NODATA, chain),
                    tuple(touched), tuple(observed),
                )
            return (
                ResolutionResult(qname, qtype, ResolutionStatus.NXDOMAIN, chain),
                tuple(touched), tuple(observed),
            )

    def resolve_a_with_chain(
        self, qname: Name, at: Optional[datetime] = None
    ) -> ResolutionResult:
        """The Algorithm-1 query: A lookup returning chain + addresses."""
        return self.resolve(qname, RRType.A, at=at)

    def memo_entry(self, qname: Name, qtype: RRType):
        """The still-valid memo entry for (qname, qtype), or ``None``.

        An entry is valid while every name its walk consulted still has
        the same cover and per-name versions (:meth:`_memo_valid`) —
        i.e. while a fresh walk would provably return the identical
        result.  Entry identity is stable for as long as it is valid,
        which lets higher-level caches (the shard touch memo) use
        ``is`` checks to detect any DNS change since they were built.
        """
        entry = self._memo.get((qname, qtype))
        if entry is None or not self._memo_valid(entry):
            return None
        return entry

    @staticmethod
    def memo_observed(entry) -> tuple:
        """The passive-DNS record groups a memo entry replays, in order."""
        return entry[5]

    @staticmethod
    def memo_touched(entry) -> tuple:
        """The ``(zone, name, name_ver, wkey, wkey_ver)`` tuples a memo
        entry's walk consulted — the names whose revisions pin the
        resolution outcome (the revision-journal dependency set)."""
        return entry[1]

    def _observe(self, records: List[ResourceRecord], at: Optional[datetime]) -> None:
        if self._passive_dns is not None and at is not None:
            for record in records:
                self._passive_dns.observe(record, at)
