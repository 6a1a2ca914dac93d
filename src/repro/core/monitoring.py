"""Weekly monitoring: sampling and snapshot storage (Section 3.2).

For each monitored FQDN the monitor takes a weekly sample: resolve,
fetch the index HTML over HTTP/S, and — only when needed to judge a
change, per the paper's two-requests-per-FQDN ethics bound — fetch the
sitemap.  Samples are reduced to :class:`SnapshotFeatures` (hashes,
sizes, language, keywords, external references) and deduplicated into
content *states*: a new snapshot is stored only when something
observable changed, which is both how a real pipeline controls volume
and what change detection consumes.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.keywords import extract_keywords
from repro.core.sigindex import (
    DEFAULT_POSTING_CAP,
    PostingIndex,
    signature_anchor,
    state_tokens,
)
from repro.dns.names import Name
from repro.faults.retry import RetryPolicy
from repro.obs import OBS
from repro.web.client import FetchOutcome, FetchStatus, HttpClient
from repro.web.html import parse_html
from repro.web.sitemap import sitemap_summary

#: Monitor requests carry a crawler-like UA: the paper fetched pages the
#: way search spiders do, which is also why cloaked content (served to
#: crawlers) is visible to the pipeline.
MONITOR_USER_AGENT = "repro-monitor/1.0 (research crawler)"

#: Final fetch statuses the sweep treats as transient measurement
#: failures — the FQDN's state this week is *unknown*, not dangling, so
#: the pipeline quarantines the sample instead of trusting it.
TRANSIENT_SAMPLE_STATUSES = frozenset(
    {
        FetchStatus.TIMEOUT.value,
        FetchStatus.HTTP_ERROR.value,
        FetchStatus.CONNECTION_RESET.value,
        FetchStatus.CIRCUIT_OPEN.value,
    }
)


@dataclass
class MonitorConfig:
    """Knobs for the weekly sampler."""

    user_agent: str = MONITOR_USER_AGENT
    #: Cap on stored external URLs per snapshot (abuse pages embed few).
    external_url_cap: int = 64
    #: Cap on stored sitemap sample URLs.
    sitemap_sample_cap: int = 10
    #: Try HTTPS first, falling back to HTTP when the TLS handshake
    #: fails (no/invalid certificate).  The scheme actually used is
    #: recorded on the snapshot.  The fallback pair counts as one
    #: logical index probe against the ethics bound.
    prefer_https: bool = False
    #: Retry budget for the monitor's own fetches (index + sitemap).
    #: The default (one attempt, no retries) is the pre-resilience
    #: behaviour; chaos runs raise it to ride out transient faults.
    retry: RetryPolicy = field(default_factory=RetryPolicy.none)
    #: Maximum entries the monitor's :class:`TouchLedger` retains.  A
    #: ledger entry is small, but a 3-year scenario monitors a growing
    #: population — the cap bounds memory and evicts least-recently
    #: refreshed names first (they just fall back to full samples).
    touch_ledger_cap: int = 65536


@dataclass(frozen=True)
class SnapshotFeatures:
    """Everything one weekly sample records about one FQDN."""

    fqdn: Name
    at: datetime
    dns_status: str
    cname_chain: Tuple[str, ...]
    addresses: Tuple[str, ...]
    fetch_status: str
    http_status: int = 0
    html_hash: str = ""
    html_size: int = 0
    title: str = ""
    lang: str = ""
    generator: str = ""
    keywords: FrozenSet[str] = frozenset()
    meta_keywords: Tuple[str, ...] = ()
    external_urls: Tuple[str, ...] = ()
    script_srcs: Tuple[str, ...] = ()
    #: Relative links pointing at downloadable executables (Section 5.4).
    download_paths: Tuple[str, ...] = ()
    onclick_count: int = 0
    has_meta_keywords: bool = False
    sitemap_size: int = -1  # -1: not fetched / unavailable
    sitemap_count: int = -1
    sitemap_sample: Tuple[str, ...] = ()
    #: Fetch attempts the index sample took (1 = first try; excluded
    #: from :meth:`state_key` so retries never fabricate new states).
    attempts: int = 1
    #: Scheme the index fetch actually used ("http"/"https").  Like
    #: ``attempts`` this describes *how* the sample was taken, not what
    #: was observed, so it is excluded from :meth:`state_key`.
    scheme: str = "http"

    @property
    def reachable(self) -> bool:
        """Whether the index fetch returned a 2xx page."""
        return self.fetch_status == FetchStatus.OK.value and 200 <= self.http_status < 300

    def state_key(self) -> Tuple:
        """The identity of this observable state (dedup key).

        Timestamps are excluded; sitemap values are included so a
        sitemap-only change still registers as a new state.
        """
        return (
            self.dns_status, self.cname_chain, self.addresses,
            self.fetch_status, self.http_status, self.html_hash,
            self.sitemap_size, self.sitemap_count,
        )


@dataclass
class StoredState:
    """One deduplicated content state and its observation window."""

    features: SnapshotFeatures
    first_seen: datetime
    last_seen: datetime
    observations: int = 1


class SnapshotStore:
    """Per-FQDN history of deduplicated states.

    Alongside the histories the store keeps a :class:`PostingIndex` —
    token → FQDN postings over every token any stored state ever
    carried — plus per-FQDN sitemap maxima, both maintained
    incrementally on state writes.  They answer one question for the
    detector's retrospective rescans: *which FQDNs could a new
    signature possibly match?* (see :meth:`rescan_candidates`).
    """

    def __init__(self, posting_cap: int = DEFAULT_POSTING_CAP) -> None:
        self._history: Dict[Name, List[StoredState]] = {}
        self.postings = PostingIndex(cap=posting_cap)
        #: fqdn -> (max sitemap_count, max sitemap_size) over history.
        self._sitemap_maxima: Dict[Name, Tuple[int, int]] = {}

    def record(self, features: SnapshotFeatures) -> Tuple[bool, Optional[SnapshotFeatures]]:
        """Store a sample; returns ``(is_new_state, previous_features)``.

        ``previous_features`` is the state that was current before this
        sample (``None`` on first sight).
        """
        history = self._history.setdefault(features.fqdn, [])
        if history and history[-1].features.state_key() == features.state_key():
            current = history[-1]
            current.last_seen = features.at
            current.observations += 1
            return False, history[-2].features if len(history) > 1 else None
        previous = history[-1].features if history else None
        history.append(
            StoredState(features=features, first_seen=features.at, last_seen=features.at)
        )
        self.postings.add(features.fqdn, state_tokens(features))
        max_count, max_size = self._sitemap_maxima.get(features.fqdn, (-1, -1))
        self._sitemap_maxima[features.fqdn] = (
            max(max_count, features.sitemap_count),
            max(max_size, features.sitemap_size),
        )
        return True, previous

    def rescan_candidates(self, signature) -> Optional[frozenset]:
        """FQDNs whose history could contain a match for ``signature``.

        Sound over-approximation: a signature requires every component
        group it carries, so an FQDN none of whose states ever held an
        anchor token cannot match and is safely skipped.  ``None``
        means the index cannot prune (no token anchor and no sitemap
        threshold, or an anchor token's postings were evicted) and the
        caller must scan everything.
        """
        kind, anchor = signature_anchor(signature)
        if kind == "sitemap":
            return frozenset(
                fqdn
                for fqdn, (max_count, max_size) in self._sitemap_maxima.items()
                if (not signature.sitemap_min_count
                    or max_count >= signature.sitemap_min_count)
                and (not signature.sitemap_min_bytes
                     or max_size >= signature.sitemap_min_bytes)
            )
        if kind == "scan":
            return None
        candidates = self.postings.candidate_fqdns(anchor)
        return frozenset(candidates) if candidates is not None else None

    def touch(self, fqdn: Name, at: datetime) -> None:
        """Re-observe ``fqdn``'s current state at ``at`` without a sample.

        Equivalent to :meth:`record` with features whose ``state_key``
        matches the latest stored state — the common steady-state case
        — minus the cost of building the features object.  The caller
        must have verified the observed state is unchanged.
        """
        history = self._history[fqdn]
        current = history[-1]
        current.last_seen = at
        current.observations += 1

    def history(self, fqdn: Name) -> List[StoredState]:
        return list(self._history.get(fqdn, []))

    def latest(self, fqdn: Name) -> Optional[SnapshotFeatures]:
        history = self._history.get(fqdn)
        return history[-1].features if history else None

    def fqdns(self) -> List[Name]:
        return sorted(self._history)

    def state_count(self) -> int:
        """Total stored states across all FQDNs."""
        return sum(len(h) for h in self._history.values())


@dataclass
class ExtractionCache:
    """Content-addressed memo of pure feature extraction.

    Parsing and keyword extraction are pure functions of the body, and
    week over week almost every body is one the pipeline has already
    seen — so extracted features can be reused by body hash.  ``html``
    maps an index-body hash to the :class:`SnapshotFeatures` field dict
    the body extracts to; ``sitemap`` maps a sitemap-body hash to its
    ``(size, count, sample)`` triple.  Entirely behaviour-transparent:
    a cached entry is byte-identical to re-extraction.  Disabled by
    default (``WeeklyMonitor`` is built without one); the sharded
    executor owns one per run and threads it into its shards.
    """

    html: Dict[str, Dict[str, object]] = field(default_factory=dict)
    sitemap: Dict[str, Tuple[int, int, Tuple[str, ...]]] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


@dataclass(frozen=True)
class TouchEntry:
    """Proof that a name's last full sample is still current.

    ``deps`` are the revision-journal subjects the sample's outcome
    depends on — the DNS names its resolution walked (exact and
    wildcard keys, plus the zone-set key), the edge route and network
    binding it was served through, and the site whose content it
    hashed.  While none of those subjects move in the journal, the
    name's observable state provably equals ``state_key`` and a sweep
    may extend its observation window without re-sampling.

    ``observed`` replays the passive-DNS observations the skipped
    resolution would have produced, keeping exports byte-identical.
    Entries are plain data (no live world references), so they survive
    pickling across process-pool boundaries and checkpoint resumes.
    """

    fqdn: Name
    deps: Tuple[Tuple[str, object], ...]
    state_key: Tuple
    observed: Tuple = ()


class TouchLedger:
    """Size-capped store of :class:`TouchEntry` proofs, monitor-owned.

    Replaces the old identity-comparison touch memo that workers used
    to inject onto the monitor via a private attribute: entries here
    are validated against the revision journal (value semantics), not
    against Python object identity, so they stay valid across process
    forks and site types.  ``cursor`` marks the journal position the
    ledger was last reconciled at: every live entry's dependencies are
    unchanged as of that cursor, so one ``changed_since(cursor)`` call
    yields the sweep's dirty set.
    """

    def __init__(self, cap: int = 65536):
        if cap <= 0:
            raise ValueError(f"cap must be positive, got {cap}")
        self.cap = cap
        self._entries: "OrderedDict[Name, TouchEntry]" = OrderedDict()
        #: Journal cursor as of the last completed sweep.
        self.cursor = 0
        self.evictions = 0

    def get(self, fqdn: Name) -> Optional[TouchEntry]:
        """The entry for ``fqdn``, if any.  Read-only: recency order is
        deliberately not updated, so lookups behave identically whether
        they happen inline or in a forked worker's copy."""
        return self._entries.get(fqdn)

    def put(self, fqdn: Name, entry: TouchEntry) -> None:
        """Insert or refresh ``fqdn``'s entry, evicting when over cap."""
        self._entries[fqdn] = entry
        self._entries.move_to_end(fqdn)
        while len(self._entries) > self.cap:
            self._entries.popitem(last=False)
            self.evictions += 1
            if OBS.enabled:
                OBS.metrics.inc("monitor.touch_ledger.evictions")

    def invalidate(self, fqdn: Name) -> None:
        """Drop ``fqdn``'s entry (no-op when absent)."""
        self._entries.pop(fqdn, None)

    def __len__(self) -> int:
        return len(self._entries)


class WeeklyMonitor:
    """Takes the weekly samples; a sweep executor records them into
    :attr:`store` (see :mod:`repro.parallel.executor`)."""

    def __init__(
        self,
        client: HttpClient,
        store: Optional[SnapshotStore] = None,
        config: Optional[MonitorConfig] = None,
        extraction_cache: Optional[ExtractionCache] = None,
        journal=None,
        incremental: bool = False,
    ):
        self._client = client
        self.store = store if store is not None else SnapshotStore()
        self.config = config or MonitorConfig()
        #: Optional content-addressed extraction memo (None = always
        #: re-extract, as the serial oracle does).
        self.extraction_cache = extraction_cache
        #: The world's :class:`repro.sim.revisions.RevisionJournal`;
        #: required for incremental sweeps, harmless otherwise.
        self.journal = journal
        #: When true (and a journal is wired), sweeps compute a dirty
        #: set from the journal and extend clean names' windows through
        #: the :class:`TouchLedger` instead of re-sampling them.
        self.incremental = incremental
        self.touch_ledger = TouchLedger(cap=self.config.touch_ledger_cap)
        self.samples_taken = 0
        self.sitemap_fetches = 0

    @property
    def client(self) -> HttpClient:
        """The HTTP client the monitor samples through."""
        return self._client

    def sample(self, fqdn: Name, at: datetime) -> SnapshotFeatures:
        """One weekly sample: index fetch, plus sitemap when warranted."""
        self.samples_taken += 1
        if OBS.enabled:
            OBS.metrics.inc("monitor.samples")
        headers = {"User-Agent": self.config.user_agent}
        outcome, scheme = self._fetch_index(fqdn, at, headers)
        resolution = outcome.resolution
        features = SnapshotFeatures(
            fqdn=fqdn,
            at=at,
            dns_status=resolution.status.value if resolution else "ERROR",
            cname_chain=tuple(resolution.cname_chain) if resolution else (),
            addresses=tuple(resolution.addresses) if resolution else (),
            fetch_status=outcome.status.value,
            attempts=outcome.attempts,
            scheme=scheme,
        )
        if not outcome.ok:
            if outcome.response is not None:
                # 5xx/429: record the code so the error class survives
                # into the stored state even though no body is trusted.
                features = replace(features, http_status=outcome.response.status)
            return features
        body = outcome.response.body
        body_hash = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
        previous = self.store.latest(fqdn)
        if previous is not None and previous.html_hash == body_hash:
            # Unchanged content: reuse the parsed features rather than
            # re-parsing (the stored state dedup makes this the common
            # case, as in a real pipeline's content-addressed store).
            features = replace(
                previous, at=at,
                dns_status=features.dns_status,
                cname_chain=features.cname_chain,
                addresses=features.addresses,
                fetch_status=features.fetch_status,
                attempts=features.attempts,
                scheme=features.scheme,
            )
        else:
            features = self._with_html_features(
                features, outcome.response.status, body, body_hash
            )
        # Second (conditional) request: the sitemap, fetched only when
        # the page is up — the paper's "if we cannot establish an abuse
        # with confidence" follow-up, bounded to 2 requests per FQDN.
        if previous is None or previous.html_hash != features.html_hash or previous.sitemap_count < 0:
            features = self._with_sitemap_features(features, fqdn, at, headers, scheme)
        else:
            features = replace(
                features,
                sitemap_size=previous.sitemap_size,
                sitemap_count=previous.sitemap_count,
                sitemap_sample=previous.sitemap_sample,
            )
        return features

    def _fetch_index(
        self, fqdn: Name, at: datetime, headers: Dict[str, str]
    ) -> Tuple[FetchOutcome, str]:
        """The index fetch, with scheme selection.

        With ``prefer_https`` the HTTPS attempt comes first; a TLS
        failure (no or invalid certificate) falls back to plain HTTP —
        any other HTTPS outcome, success or failure, is authoritative.
        Returns the outcome and the scheme it was fetched over.
        """
        if self.config.prefer_https:
            outcome = self._client.fetch(
                fqdn, path="/", scheme="https", at=at, headers=headers,
                retry=self.config.retry,
            )
            if outcome.status != FetchStatus.TLS_ERROR:
                return outcome, "https"
        outcome = self._client.fetch(
            fqdn, path="/", scheme="http", at=at, headers=headers,
            retry=self.config.retry,
        )
        return outcome, "http"

    # -- feature builders ------------------------------------------------------------

    def _with_html_features(
        self,
        features: SnapshotFeatures,
        status: int,
        body: str,
        body_hash: Optional[str] = None,
    ) -> SnapshotFeatures:
        if body_hash is None:
            body_hash = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
        cache = self.extraction_cache
        if cache is not None:
            cached = cache.html.get(body_hash)
            if cached is not None:
                cache.hits += 1
                if OBS.enabled:
                    OBS.metrics.inc("extraction.html.hits")
                return replace(
                    features, http_status=status, html_hash=body_hash, **cached
                )
            cache.misses += 1
            if OBS.enabled:
                OBS.metrics.inc("extraction.html.misses")
        fields = self._extract_html_fields(body)
        if cache is not None:
            cache.html[body_hash] = fields
        return replace(features, http_status=status, html_hash=body_hash, **fields)

    def _extract_html_fields(self, body: str) -> Dict[str, object]:
        """Pure extraction of one index body's feature fields."""
        document = parse_html(body)
        external = [u for u in document.all_urls() if u.startswith(("http://", "https://"))]
        downloads = tuple(
            link.href
            for link in document.links
            if link.href.startswith("/")
            and link.href.lower().endswith((".apk", ".exe", ".msi", ".dmg"))
        )
        return dict(
            html_size=len(body.encode("utf-8")),
            title=document.title,
            lang=document.lang,
            generator=document.generator,
            keywords=extract_keywords(document),
            meta_keywords=tuple(document.meta_keywords),
            external_urls=tuple(external[: self.config.external_url_cap]),
            script_srcs=tuple(s.src for s in document.scripts if s.src),
            download_paths=downloads,
            onclick_count=sum(1 for link in document.links if link.onclick),
            has_meta_keywords="keywords" in document.meta,
        )

    def _with_sitemap_features(
        self,
        features: SnapshotFeatures,
        fqdn: Name,
        at: datetime,
        headers: Dict[str, str],
        scheme: str = "http",
    ) -> SnapshotFeatures:
        self.sitemap_fetches += 1
        outcome = self._client.fetch(
            fqdn, path="/sitemap.xml", scheme=scheme, at=at, headers=headers,
            retry=self.config.retry,
        )
        if not outcome.ok:
            return features
        size, count, sample = self.extract_sitemap_fields(outcome.response.body)
        return replace(
            features, sitemap_size=size, sitemap_count=count, sitemap_sample=sample
        )

    def extract_sitemap_fields(self, body: str) -> Tuple[int, int, Tuple[str, ...]]:
        """``(size, count, sample)`` of one sitemap body, via the cache."""
        cache = self.extraction_cache
        if cache is None:
            return self._extract_sitemap_fields(body)
        key = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
        cached = cache.sitemap.get(key)
        if cached is not None:
            cache.hits += 1
            if OBS.enabled:
                OBS.metrics.inc("extraction.sitemap.hits")
            return cached
        cache.misses += 1
        if OBS.enabled:
            OBS.metrics.inc("extraction.sitemap.misses")
        fields = self._extract_sitemap_fields(body)
        cache.sitemap[key] = fields
        return fields

    def _extract_sitemap_fields(self, body: str) -> Tuple[int, int, Tuple[str, ...]]:
        count, sample = sitemap_summary(body, self.config.sitemap_sample_cap)
        return len(body.encode("utf-8")), count, sample
