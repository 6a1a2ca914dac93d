"""Shard-local sweep execution.

A *shard* is one weekly sweep's monitored-FQDN list, sampled start to
finish inline.  :func:`run_shard` records each name into the monitor
right after sampling it, before it samples the next — the snapshot
store's ``record``, the touch ledger's proof, a failure or a dead
letter — and returns the week's :class:`SweepReport`.  So the store,
the changed-pairs list and the quarantine list see the exact sequence
a plain serial loop over ``WeeklyMonitor.sample`` produces, repeated
names included.

When the world is healthy (no fault plan drawing, no breaker, no retry
budget) a shard takes the *fused* sampling path: one resolution per
FQDN, the index served directly off the routed host, and the sitemap
fetched by reusing the index resolution instead of re-resolving.  The
fused path replicates ``WeeklyMonitor.sample`` semantics exactly —
including recording non-5xx sitemap responses of any status — so its
features are byte-identical to the generic path's.

A monitor with a revision journal takes the fused path through its
:class:`~repro.core.monitoring.TouchLedger`: names whose proof stands
are extended in bulk, with no per-name call, and only the dirty, the
unproven and one soundness slice of the standing names are sampled.
Each trusted sample mints its name's proof from the state it just
recorded, so a name stands from its first sweep on — a dangling one
(NXDOMAIN, a dark address) until its zone, route or binding moves.

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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.monitoring import (
    ExtractionCache,
    SnapshotFeatures,
    SnapshotStore,
    TouchEntry,
    TRANSIENT_SAMPLE_STATUSES,
    WeeklyMonitor,
)
from repro.dns.names import Name
from repro.dns.records import RRType
from repro.dns.resolver import ResolutionStatus, Resolver
from repro.dns.zone import ZONE_SET_KEY
from repro.obs import OBS, cpu_seconds_now
from repro.sim.windows import SweepWindow
from repro.web.client import FetchStatus, HttpClient
from repro.web.http import HttpRequest


#: Enum ``.value`` reads hoisted out of the fused loop — each is a
#: descriptor call per access, and the loop needs several per sample.
_OK_VALUE = FetchStatus.OK.value
_NXDOMAIN_VALUE = FetchStatus.DNS_NXDOMAIN.value
_TIMEOUT_VALUE = FetchStatus.TIMEOUT.value
_DNS_ERROR_VALUE = FetchStatus.DNS_ERROR.value
_CONNECTION_FAILED_VALUE = FetchStatus.CONNECTION_FAILED.value
_HTTP_ERROR_VALUE = FetchStatus.HTTP_ERROR.value

ChangedPair = Tuple[SnapshotFeatures, Optional[SnapshotFeatures]]


@dataclass
class SweepReport:
    """One sweep's outcome: what changed, what failed, and its timing.

    ``changed``, ``failures`` and ``quarantined`` are in input order.
    Counters are not repeated here: they live on the monitor, its
    client and the extraction cache.
    """

    changed: List[ChangedPair] = field(default_factory=list)
    failures: List[Tuple[Name, str]] = field(default_factory=list)
    #: Dead letters: names whose sample raised this sweep, as
    #: (fqdn, "ExcType: message") pairs.  Distinct from ``failures``
    #: (retry-exhausted *samples*): a quarantined name produced no
    #: sample at all.
    quarantined: List[Tuple[Name, str]] = field(default_factory=list)
    #: Elapsed time of the whole sweep.
    wall_seconds: float = 0.0
    #: CPU seconds the shard burned sampling and recording its names
    #: (the serial oracle reports its elapsed time: cpu = wall).
    cpu_seconds: float = 0.0


def _ledger_entry(
    client: HttpClient, features: SnapshotFeatures
) -> Optional[TouchEntry]:
    """The :class:`TouchEntry` proving that ``features``, the state a
    fused sample just recorded, is what its name's next sample would
    observe; ``None`` when no journal subject can vouch for that.

    Captures every revision-journal subject the state depends on: the
    DNS names the resolution walked (exact and wildcard keys) plus the
    zone-set key, for every state.  NXDOMAIN, NODATA and SERVFAIL
    states need nothing more.  A dark address adds its network binding;
    a page adds the edge route and network binding it came through and
    the journal-adopted site whose content was hashed.  While none of
    those subjects move, the observable state provably equals
    ``features.state_key()``.  Entries are plain data, so they
    checkpoint with the monitor.
    """
    fqdn = features.fqdn
    status = features.fetch_status
    if status == _OK_VALUE:
        if features.sitemap_count < 0:
            # The sitemap fetch failed: the next sample fetches it
            # again, and may record a new state.
            return None
        ip = features.addresses[0]
        site_for = getattr(client.network.host_at(ip), "site_for", None)
        if site_for is None:
            return None
        site_key = getattr(site_for(fqdn), "journal_key", None)
        if site_key is None:
            # Unrouted names and unadopted content (no provider bound
            # it to the journal) have no change signal; they must keep
            # taking the full sample.
            return None
        served = [("web", fqdn.lower()), ("net", ip), ("site", site_key)]
    elif status == _CONNECTION_FAILED_VALUE:
        served = [("net", features.addresses[0])]
    elif status in (_NXDOMAIN_VALUE, _DNS_ERROR_VALUE):
        served = []
    else:
        return None
    res_entry = client.resolver.memo_entry(fqdn, RRType.A)
    if res_entry is None:
        return None
    deps = [("dns", ZONE_SET_KEY)]
    for _zone, name, _ver, wkey, _wver in Resolver.memo_touched(res_entry):
        deps.append(("dns", name))
        if wkey is not None:
            deps.append(("dns", wkey))
    observed = tuple(
        record
        for group in Resolver.memo_observed(res_entry)
        for record in group
    )
    return TouchEntry(
        fqdn=fqdn,
        deps=tuple(deps + served),
        state_key=features.state_key(),
        observed=observed,
    )


def _standing_windows(
    store: SnapshotStore, feed, entry: TouchEntry
) -> Tuple[SweepWindow, ...]:
    """The windows a standing ``entry`` extends each sweep: its name's
    current snapshot state and, when resolutions feed passive DNS, the
    sighting of every record its resolution observes."""
    windows: List[SweepWindow] = [store.history(entry.fqdn)[-1]]
    if feed is not None:
        windows.extend(feed.observation_for(record) for record in entry.observed)
    return tuple(windows)


def fast_path_eligible(monitor: WeeklyMonitor) -> bool:
    """Whether the fused sampling loop is behaviour-equivalent here.

    The fused loop skips the client's fault/breaker/retry machinery, so
    it is only taken when none of that machinery can fire: no active
    fault classes, no breaker, single-attempt retry policy.
    """
    client = monitor.client
    plan = client.fault_plan
    return (
        client.breaker is None
        and monitor.config.retry.max_attempts == 1
        and (plan is None or not plan.config.any_active)
    )


def run_shard(
    monitor: WeeklyMonitor,
    fqdns: Sequence[Name],
    at: datetime,
    cache: Optional[ExtractionCache],
) -> SweepReport:
    """Sweep one shard, recording each name before sampling the next.

    A trusted sample goes into the snapshot store with ``record``; a
    transient final status becomes a failure and a raising sample a
    dead letter in ``quarantined``, and the loop goes on.  The
    passive-DNS feed and the extraction cache are written by the
    samplers themselves.

    On the fused path a monitor with a journal sweeps through its
    :class:`TouchLedger`: standing names are extended in bulk and only
    the rest — dirty, unproven, and this sweep's soundness slice — are
    sampled, in ``fqdns`` order.  Each recorded sample mints a proof
    from the state just recorded, which settles the name's soundness
    check or stands from the next sweep on, windows and all.  A name
    without a proof, or whose soundness check failed, is sampled again
    next sweep.  Failed and dead-lettered names keep their proofs until
    :meth:`ProcessExecutor._apply` closes the sweep.
    """
    client = monitor.client
    store = monitor.store
    feed = client.resolver.passive_dns
    started = time.perf_counter()
    cpu0 = cpu_seconds_now()
    previous_cache = monitor.extraction_cache
    monitor.extraction_cache = cache

    report = SweepReport()
    try:
        fused = fast_path_eligible(monitor)
        ledger = None
        names = fqdns
        if fused:
            # Part of the fast path: version-validated resolution
            # memoization, switched on for the run's resolver.  Every
            # hit is revalidated against the zone versions and replays
            # identical passive-DNS observations.
            client.resolver.enable_memo()
            if monitor.journal is not None:
                ledger = monitor.touch_ledger
                # The world is quiescent during a sweep, so the
                # subjects that moved since the ledger's cursor hold
                # for every name.
                names, clean = ledger.begin_sweep(
                    fqdns, monitor.journal.changed_since(ledger.cursor), at
                )
                monitor.samples_taken += clean
                if OBS.enabled and clean:
                    OBS.metrics.inc("monitor.samples", clean)
                    OBS.metrics.inc("journal.clean_skips", clean)
        elif monitor.journal is not None:
            # The generic sampler re-samples every name, so no window
            # may stand through this sweep.
            monitor.touch_ledger.clear()
        headers = {"User-Agent": monitor.config.user_agent}
        with OBS.tracer.span(
            "sweep.shard", sim=at, shard=0, size=len(fqdns),
            mode="fused" if fused else "generic",
        ):
            for fqdn in names:
                try:
                    if fused:
                        features = _sample_fused(monitor, fqdn, at, headers)
                    else:
                        features = monitor.sample(fqdn, at)
                except Exception as error:
                    report.quarantined.append(
                        (fqdn, f"{type(error).__name__}: {error}")
                    )
                    continue
                if features.fetch_status in TRANSIENT_SAMPLE_STATUSES:
                    report.failures.append((fqdn, features.fetch_status))
                    continue
                is_new, previous = store.record(features)
                if is_new:
                    report.changed.append((features, previous))
                if ledger is None:
                    continue
                fresh = _ledger_entry(client, features)
                if ledger.confirm(fqdn, fresh):
                    continue
                if fresh is None:
                    ledger.invalidate(fqdn)
                else:
                    ledger.put(fqdn, fresh, _standing_windows(store, feed, fresh))
    finally:
        monitor.extraction_cache = previous_cache

    report.wall_seconds = time.perf_counter() - started
    report.cpu_seconds = cpu_seconds_now() - cpu0
    return report


def _sample_fused(
    monitor: WeeklyMonitor,
    fqdn: Name,
    at: datetime,
    headers: Dict[str, str],
) -> SnapshotFeatures:
    """One weekly sample on the fused healthy-world path.

    Semantics-for-semantics replica of ``WeeklyMonitor.sample`` with
    the fault/breaker/retry seams (guaranteed quiescent by
    :func:`fast_path_eligible`) elided: one resolution serves both the
    index and the sitemap fetch, the routed host is called directly,
    the body is encoded and hashed once, and features are built in a
    single construction instead of a ``replace`` chain.
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
    if previous is not None and previous.html_hash == body_hash:
        features = replace(
            previous,
            at=at,
            dns_status=dns_status,
            cname_chain=cname_chain,
            addresses=addresses,
            fetch_status=_OK_VALUE,
            attempts=1,
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
