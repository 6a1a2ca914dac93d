"""Shard-local sweep execution.

A *shard* is one weekly sweep's monitored-FQDN list, sampled start to
finish inline.  :func:`run_shard` records no sample into the snapshot
store: samples come back as data in input order and the executor
records them into the store afterwards, so the store, the
changed-pairs list and the quarantine list all see the exact sequence
a plain serial loop over ``WeeklyMonitor.sample`` would have produced.

When the world is healthy (no fault plan drawing, no breaker, no retry
budget, plain HTTP) a shard takes the *fused* sampling path: one
resolution per FQDN, the index served directly off the routed host, and
the sitemap fetched by reusing the index resolution instead of
re-resolving.  The fused path replicates ``WeeklyMonitor.sample``
semantics exactly — including recording non-5xx sitemap responses of
any status — so its features are byte-identical to the generic path's.

A monitor with a revision journal takes the fused path through its
:class:`~repro.core.monitoring.TouchLedger`: names whose proof stands
are extended in bulk, with no per-name call, and only the dirty, the
unproven and one soundness slice of the standing names are sampled.

A name whose sample raises is a *dead letter*: the shard records it as
``(fqdn, "ExcType: message")`` and moves on to the next name.  The
attacker owns every byte a hijacked name serves, so a raising sample is
an input, not a bug in the sweep; it costs that one name, and every
other name is still sampled exactly once.  Whatever the raising sample
did before it raised (passive-DNS sightings, counters) stays.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.monitoring import (
    ExtractionCache,
    SnapshotFeatures,
    TouchEntry,
    TRANSIENT_SAMPLE_STATUSES,
    WeeklyMonitor,
)
from repro.dns.names import Name
from repro.dns.records import RRType
from repro.dns.resolver import ResolutionStatus, Resolver
from repro.dns.zone import ZONE_SET_KEY
from repro.obs import OBS, cpu_seconds_now, peak_rss_kb
from repro.web.client import FetchStatus
from repro.web.http import HttpRequest


#: Enum ``.value`` reads hoisted out of the fused loop — each is a
#: descriptor call per access, and the loop needs several per sample.
_OK_VALUE = FetchStatus.OK.value
_NXDOMAIN_VALUE = FetchStatus.DNS_NXDOMAIN.value
_TIMEOUT_VALUE = FetchStatus.TIMEOUT.value
_DNS_ERROR_VALUE = FetchStatus.DNS_ERROR.value
_CONNECTION_FAILED_VALUE = FetchStatus.CONNECTION_FAILED.value
_HTTP_ERROR_VALUE = FetchStatus.HTTP_ERROR.value

def _ledger_entry(
    resolver: Resolver, fqdn: Name, ip: str, host, previous: SnapshotFeatures
) -> Optional[TouchEntry]:
    """Build the :class:`TouchEntry` proving this touch outcome.

    Captures every revision-journal subject the sample's outcome
    depends on: the DNS names the resolution walked (exact and wildcard
    keys) plus the zone-set key, the edge route and network binding the
    response came through, and the journal-adopted site whose content
    was hashed.  While none of those subjects move, the observable
    state provably equals ``previous.state_key()``.  Entries are plain
    data, so they checkpoint with the monitor.
    """
    site_for = getattr(host, "site_for", None)
    if site_for is None:
        return None
    site = site_for(fqdn)
    site_key = getattr(site, "journal_key", None)
    if site_key is None:
        # Unadopted content (no provider bound it to the journal) has
        # no change signal; it must keep taking the full sample.
        return None
    res_entry = resolver.memo_entry(fqdn, RRType.A)
    if res_entry is None:
        return None
    deps = [("dns", ZONE_SET_KEY)]
    for _zone, name, _ver, wkey, _wver in Resolver.memo_touched(res_entry):
        deps.append(("dns", name))
        if wkey is not None:
            deps.append(("dns", wkey))
    deps.append(("web", fqdn.lower()))
    deps.append(("net", ip))
    deps.append(("site", site_key))
    observed = tuple(
        record
        for group in Resolver.memo_observed(res_entry)
        for record in group
    )
    return TouchEntry(
        fqdn=fqdn,
        deps=tuple(deps),
        state_key=previous.state_key(),
        observed=observed,
    )


@dataclass
class ShardResult:
    """Everything one shard's sweep produced, as data for the executor."""

    size: int
    #: Store-eligible samples in input order (transient finals
    #: excluded).  An entry is either a full :class:`SnapshotFeatures`
    #: or a bare FQDN — a *touch marker* meaning the observed state
    #: provably equals the latest stored one, so the executor just
    #: bumps that state's observation window (``SnapshotStore.touch``)
    #: the way ``record`` would have deduplicated the full sample.
    sampled: List[Union[SnapshotFeatures, Name]] = field(default_factory=list)
    #: Retry-exhausted (fqdn, fetch_status) pairs, in input order.
    failures: List[Tuple[Name, str]] = field(default_factory=list)
    #: Dead letters: (fqdn, "ExcType: message") for every name whose
    #: sample raised, in input order.  Such a name produced no sample.
    quarantined: List[Tuple[Name, str]] = field(default_factory=list)
    #: Fresh :class:`TouchEntry` proofs minted by this shard's touch
    #: markers (ledger sweeps only); the executor installs them into
    #: the monitor's ledger as it records the markers.
    ledger_entries: Dict[Name, TouchEntry] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: CPU seconds burned sampling this shard (wall-class: feeds the
    #: resource accounting, excluded from determinism diffs).
    cpu_seconds: float = 0.0
    #: Peak RSS of the process in KiB (max-merged, never summed).
    peak_rss_kb: int = 0


def fast_path_eligible(monitor: WeeklyMonitor) -> bool:
    """Whether the fused sampling loop is behaviour-equivalent here.

    The fused loop skips the client's fault/breaker/retry/TLS machinery,
    so it is only taken when none of that machinery can fire: no active
    fault classes, no breaker, single-attempt retry policy, plain HTTP.
    """
    client = monitor.client
    plan = client.fault_plan
    return (
        not monitor.config.prefer_https
        and client.breaker is None
        and monitor.config.retry.max_attempts == 1
        and (plan is None or not plan.config.any_active)
    )


def run_shard(
    monitor: WeeklyMonitor,
    fqdns: Sequence[Name],
    at: datetime,
    cache: Optional[ExtractionCache],
) -> ShardResult:
    """Sweep one shard and return its samples as data.

    Never records into the snapshot store; the passive-DNS feed and the
    extraction cache are written directly.  A name whose sample raises
    becomes a dead letter in ``quarantined`` and the loop goes on.

    On the fused path a monitor with a journal sweeps through its
    :class:`TouchLedger`: standing names are extended in bulk and only
    the rest — dirty, unproven, and this sweep's soundness slice — are
    sampled, in ``fqdns`` order.
    """
    resolver = monitor.client.resolver
    started = time.perf_counter()
    cpu0 = cpu_seconds_now()
    previous_cache = monitor.extraction_cache
    monitor.extraction_cache = cache

    result = ShardResult(size=len(fqdns))
    try:
        fused = fast_path_eligible(monitor)
        obs_on = OBS.enabled
        if obs_on:
            OBS.metrics.inc(
                "sweep.shards.fused" if fused else "sweep.shards.generic"
            )
        ledger = monitor.touch_ledger if monitor.journal is not None else None
        ledger_out: Optional[Dict[Name, TouchEntry]] = None
        names = fqdns
        if fused:
            # Part of the fast path: version-validated resolution
            # memoization, switched on for the run's resolver.  Every
            # hit is revalidated against the zone versions and replays
            # identical passive-DNS observations.
            resolver.enable_memo()
            if ledger is not None:
                # The world is quiescent during a sweep, so the
                # subjects that moved since the ledger's cursor hold
                # for every name.
                names, clean = ledger.begin_sweep(
                    fqdns, monitor.journal.changed_since(ledger.cursor), at
                )
                monitor.samples_taken += clean
                if obs_on and clean:
                    OBS.metrics.inc("monitor.samples", clean)
                    OBS.metrics.inc("journal.clean_skips", clean)
                ledger_out = result.ledger_entries
        elif ledger is not None:
            # The generic sampler re-samples every name, so no window
            # may stand through this sweep.
            ledger.clear()
        headers = {"User-Agent": monitor.config.user_agent}
        # ``seq=0`` pins the span's path id (and its trace lane) to
        # shard 0, whatever else the sweep stage opened first.
        with OBS.tracer.span(
            "sweep.shard", sim=at, seq=0, shard=0, size=len(fqdns),
            mode="fused" if fused else "generic",
        ):
            for fqdn in names:
                try:
                    if fused:
                        features = _sample_fused(monitor, fqdn, at, headers, ledger_out)
                        if not isinstance(features, SnapshotFeatures):
                            # Touch marker: the state is unchanged, ship
                            # the name alone and let the executor bump
                            # the window.
                            if obs_on:
                                OBS.metrics.inc("sweep.sample.touch")
                            result.sampled.append(features)
                            continue
                        if obs_on:
                            OBS.metrics.inc("sweep.sample.full")
                    else:
                        features = monitor.sample(fqdn, at)
                        if obs_on:
                            OBS.metrics.inc("sweep.sample.generic")
                except Exception as error:
                    result.quarantined.append(
                        (fqdn, f"{type(error).__name__}: {error}")
                    )
                    continue
                if features.fetch_status in TRANSIENT_SAMPLE_STATUSES:
                    result.failures.append((fqdn, features.fetch_status))
                else:
                    result.sampled.append(features)
    finally:
        monitor.extraction_cache = previous_cache

    result.wall_seconds = time.perf_counter() - started
    result.cpu_seconds = cpu_seconds_now() - cpu0
    result.peak_rss_kb = peak_rss_kb()
    return result


def _sample_fused(
    monitor: WeeklyMonitor,
    fqdn: Name,
    at: datetime,
    headers: Dict[str, str],
    ledger_out: Optional[Dict[Name, TouchEntry]] = None,
) -> Union[SnapshotFeatures, Name]:
    """One weekly sample on the fused healthy-world path.

    Semantics-for-semantics replica of ``WeeklyMonitor.sample`` with
    the fault/breaker/retry/TLS seams (guaranteed quiescent by
    :func:`fast_path_eligible`) elided: one resolution serves both the
    index and the sitemap fetch, the routed host is called directly,
    the body is encoded and hashed once, and features are built in a
    single construction instead of a ``replace`` chain.

    Returns the bare ``fqdn`` (a *touch marker*) instead of features
    when the observed state provably equals the latest stored state:
    same resolution triple, an OK fetch with the same HTTP status and
    body hash, and carried (already-fetched) sitemap fields — exactly
    the fields of ``SnapshotFeatures.state_key``, so ``record`` would
    have deduplicated the sample anyway.  The marker skips the features
    construction entirely; the store just extends the current state's
    observation window.

    On a ledger sweep (``ledger_out`` given) every touch marker also
    mints a :class:`TouchEntry` proof into ``ledger_out`` so future
    sweeps can skip the name outright while its journal dependencies
    stay put.
    """
    monitor.samples_taken += 1
    if OBS.enabled:
        OBS.metrics.inc("monitor.samples")
    client = monitor.client
    resolution = client.resolver.resolve(fqdn, at=at)
    status = resolution.status
    dns_status = status.value
    cname_chain = tuple(resolution.cname_chain)
    addresses = tuple(resolution.addresses)
    if status is not ResolutionStatus.NOERROR or not resolution.records:
        base = dict(
            fqdn=fqdn,
            at=at,
            dns_status=dns_status,
            cname_chain=cname_chain,
            addresses=addresses,
        )
        if status is ResolutionStatus.NXDOMAIN:
            return SnapshotFeatures(fetch_status=_NXDOMAIN_VALUE, **base)
        if status is ResolutionStatus.TIMEOUT:
            return SnapshotFeatures(fetch_status=_TIMEOUT_VALUE, **base)
        return SnapshotFeatures(fetch_status=_DNS_ERROR_VALUE, **base)
    host = client.network.host_at(addresses[0])
    if host is None or not hasattr(host, "serve"):
        return SnapshotFeatures(
            fetch_status=_CONNECTION_FAILED_VALUE,
            fqdn=fqdn,
            at=at,
            dns_status=dns_status,
            cname_chain=cname_chain,
            addresses=addresses,
        )
    # ``headers`` is shared, not copied: every in-tree handler treats
    # the request as read-only, and the request object never outlives
    # this call.
    response = host.serve(
        HttpRequest(host=fqdn, path="/", scheme="http", headers=headers)
    )
    http_status = response.status
    if http_status >= 500 or http_status == 429:
        return SnapshotFeatures(
            fetch_status=_HTTP_ERROR_VALUE,
            http_status=http_status,
            fqdn=fqdn,
            at=at,
            dns_status=dns_status,
            cname_chain=cname_chain,
            addresses=addresses,
        )
    body = response.body
    cache = monitor.extraction_cache
    body_hash = (
        cache.body_hash(body) if cache is not None
        else hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    )
    previous = monitor.store.latest(fqdn)
    if (
        previous is not None
        and previous.html_hash == body_hash
        and previous.fetch_status == _OK_VALUE
        and previous.http_status == http_status
        and previous.dns_status == dns_status
        and previous.cname_chain == cname_chain
        and previous.addresses == addresses
        and previous.sitemap_count >= 0
    ):
        if ledger_out is not None:
            entry = _ledger_entry(client.resolver, fqdn, addresses[0], host, previous)
            if entry is not None:
                ledger_out[fqdn] = entry
        return fqdn
    if previous is not None and previous.html_hash == body_hash:
        features = replace(
            previous,
            at=at,
            dns_status=dns_status,
            cname_chain=cname_chain,
            addresses=addresses,
            fetch_status=_OK_VALUE,
            attempts=1,
            scheme="http",
        )
    else:
        fields = cache.html.get(body_hash) if cache is not None else None
        if fields is not None:
            cache.hits += 1
            if OBS.enabled:
                OBS.metrics.inc("extraction.html.hits")
        else:
            fields = monitor._extract_html_fields(body)
            if cache is not None:
                cache.misses += 1
                cache.html[body_hash] = fields
                if OBS.enabled:
                    OBS.metrics.inc("extraction.html.misses")
        features = SnapshotFeatures(
            fetch_status=_OK_VALUE,
            http_status=http_status,
            html_hash=body_hash,
            fqdn=fqdn,
            at=at,
            dns_status=dns_status,
            cname_chain=cname_chain,
            addresses=addresses,
            **fields,
        )
    if previous is None or previous.html_hash != features.html_hash or previous.sitemap_count < 0:
        # The sitemap rides the index resolution: nothing mutates the
        # world mid-sweep, so re-resolving would return the same route.
        # Like the generic path, any non-5xx/429 response body — a 404
        # page included — is recorded as the sitemap observation.
        monitor.sitemap_fetches += 1
        sitemap_response = host.serve(
            HttpRequest(
                host=fqdn, path="/sitemap.xml", scheme="http", headers=headers
            )
        )
        if not (sitemap_response.status >= 500 or sitemap_response.status == 429):
            size, count, sample = monitor.extract_sitemap_fields(sitemap_response.body)
            features = replace(
                features, sitemap_size=size, sitemap_count=count, sitemap_sample=sample
            )
    return features
