"""Weekly monitoring: sampling and snapshot storage (Section 3.2).

For each monitored FQDN the monitor takes a weekly sample: resolve,
fetch the index HTML over HTTP, and — only when needed to judge a
change, per the paper's two-requests-per-FQDN ethics bound — fetch the
sitemap.  Samples are reduced to :class:`SnapshotFeatures` (hashes,
sizes, language, keywords, external references) and deduplicated into
content *states*: a new snapshot is stored only when something
observable changed, which is both how a real pipeline controls volume
and what change detection consumes.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from datetime import datetime
from functools import cached_property
from itertools import filterfalse
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core import sigindex
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
from repro.sim.windows import SweepWindow
from repro.web.client import FetchStatus, HttpClient
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

    # The component sets signatures match against, defined in
    # :mod:`repro.core.sigindex` and derived once per state: the store's
    # postings, the detector and the benign corpus all test the same
    # state, many signatures over.  A pickled state carries them.

    @cached_property
    def page_tokens(self) -> FrozenSet[str]:
        return sigindex.page_tokens(self)

    @cached_property
    def external_hosts(self) -> FrozenSet[str]:
        return sigindex.external_hosts(self)

    @cached_property
    def facade_markers(self) -> FrozenSet[str]:
        return sigindex.facade_markers(self)


class StoredState(SweepWindow):
    """One deduplicated content state and its observation window.

    While the FQDN stands in the monitor's :class:`TouchLedger`, each
    sweep extends ``last_seen`` and ``observations`` lazily; both read
    exact (see :class:`~repro.sim.windows.SweepWindow`).
    """

    __slots__ = ("features", "first_seen")

    def __init__(
        self,
        features: SnapshotFeatures,
        first_seen: datetime,
        last_seen: datetime,
        observations: int = 1,
    ) -> None:
        super().__init__(last_seen, observations)
        self.features = features
        self.first_seen = first_seen

    last_seen = property(SweepWindow._window_last)
    observations = property(SweepWindow._window_count)

    def see(self, at: datetime) -> None:
        """One more observation of this state, at ``at``."""
        self.fold()
        self._last_seen = at
        self._count += 1


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
            self.touch(features.fqdn, features.at)
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
        """Re-observe ``fqdn``'s current state at ``at``.

        :meth:`record` of a sample whose ``state_key`` matches the
        latest stored state extends that state's window through here.
        """
        self._history[fqdn][-1].see(at)

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
    default (``WeeklyMonitor`` is built without one); the sweep
    executor owns one per run and threads it into every sweep.

    ``body_hashes`` memoises the fused sampler's body digests.  Sites
    hand back the *same* body string until their content changes, so
    the steady-state lookup is an identity hit; sha256 is a pure
    function of the text, so an equal-but-distinct string mapping to
    the cached digest is correct too.  It is cleared wholesale when it
    reaches :attr:`BODY_HASH_MAX` entries.
    """

    BODY_HASH_MAX = 4096

    html: Dict[str, Dict[str, object]] = field(default_factory=dict)
    sitemap: Dict[str, Tuple[int, int, Tuple[str, ...]]] = field(default_factory=dict)
    body_hashes: Dict[str, str] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def body_hash(self, body: str) -> str:
        """The truncated sha256 of ``body``, via :attr:`body_hashes`."""
        digest = self.body_hashes.get(body)
        if digest is None:
            if len(self.body_hashes) >= self.BODY_HASH_MAX:
                self.body_hashes.clear()
            digest = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
            self.body_hashes[body] = digest
        return digest


@dataclass(frozen=True)
class TouchEntry:
    """Proof that the state a name's last sample recorded is current.

    A sweep mints it from the recorded state itself, right after
    recording it.  ``deps`` are the revision-journal subjects that
    state depends on — the DNS names its resolution walked (exact and
    wildcard keys, plus the zone-set key); for a dark address also its
    network binding; for a page also the edge route and network
    binding it was served through and the site whose content it
    hashed.  While none of those subjects move in the journal, the
    name's observable state provably equals ``state_key`` and a sweep
    may extend its observation window without re-sampling.

    ``observed`` lists the passive-DNS records the skipped resolution
    would have sighted, keeping exports byte-identical.  Entries are
    plain data (no live world references), so they survive checkpoint
    resumes.
    """

    fqdn: Name
    deps: Tuple[Tuple[str, object], ...]
    state_key: Tuple
    observed: Tuple = ()


#: Each ledger sweep re-samples the standing names of one slot in this
#: many, in full, as the ledger's in-run soundness check.
SELFCHECK_SLOTS = 64


def selfcheck_slot(fqdn: Name) -> int:
    """``fqdn``'s soundness-check slot, independent of ``PYTHONHASHSEED``."""
    return zlib.crc32(fqdn.encode("utf-8", "surrogatepass")) % SELFCHECK_SLOTS


class TouchLedger:
    """Size-capped LRU store of :class:`TouchEntry` proofs, monitor-owned.

    Entries are validated against the revision journal (value
    semantics), not against Python object identity, so they stay valid
    across checkpoint resumes and site types.  ``cursor`` marks the
    journal position the ledger was last reconciled at: every live
    entry's dependencies are unchanged as of that cursor.

    A name whose proof is installed with its windows — its current
    snapshot state and the passive-DNS sightings its resolution makes —
    *stands*: from the next sweep on, each instant a ledger sweep
    appends to :attr:`sweeps` extends those windows by one observation,
    with no per-name work at all.  A sweep mints a proof from each
    state it records, so a name stands from the sweep after its first
    sample.  A name leaves (its windows fold first) when its proof is
    invalidated, replaced or evicted.  A reverse index from journal
    subject to dependent names turns a sweep's
    ``changed_since(cursor)`` into its dirty names directly.
    """

    def __init__(self, cap: int = 65536):
        if cap <= 0:
            raise ValueError(f"cap must be positive, got {cap}")
        self.cap = cap
        self._entries: "OrderedDict[Name, TouchEntry]" = OrderedDict()
        #: Journal subject -> the name, or the set of several names,
        #: whose proof depends on it (most subjects have one name, and
        #: a bare name costs no set).
        self._dependents: Dict[Tuple[str, object], object] = {}
        #: Soundness-check slot -> names with a proof in that slot.
        self._slots: Dict[int, Set[Name]] = {}
        #: Standing name -> the windows its sweeps extend.
        self._windows: Dict[Name, Tuple[SweepWindow, ...]] = {}
        #: This sweep's soundness slice: name -> (proof, windows), out
        #: of the standing set until its full sample confirms the proof.
        self._checking: Dict[Name, Tuple[TouchEntry, Tuple[SweepWindow, ...]]] = {}
        #: One instant per ledger sweep; standing windows extend from it.
        self.sweeps: List[datetime] = []
        #: Journal cursor as of the last completed sweep.
        self.cursor = 0
        self.evictions = 0

    def get(self, fqdn: Name) -> Optional[TouchEntry]:
        """The entry for ``fqdn``, if any.  Read-only: recency order is
        deliberately not updated; only :meth:`put` refreshes it."""
        return self._entries.get(fqdn)

    def put(
        self, fqdn: Name, entry: TouchEntry, windows: Tuple[SweepWindow, ...] = ()
    ) -> None:
        """Insert or refresh ``fqdn``'s entry, evicting when over cap.

        ``windows`` stand from the next sweep on.
        """
        self.invalidate(fqdn)
        self._entries[fqdn] = entry
        index = self._dependents
        for subject in entry.deps:
            names = index.setdefault(subject, fqdn)
            if isinstance(names, set):
                names.add(fqdn)
            elif names != fqdn:
                index[subject] = {names, fqdn}
        self._slots.setdefault(selfcheck_slot(fqdn), set()).add(fqdn)
        if windows:
            self._windows[fqdn] = windows
            for window in windows:
                window.stand(self.sweeps, 1)
        while len(self._entries) > self.cap:
            self.invalidate(next(iter(self._entries)))
            self.evictions += 1
            if OBS.enabled:
                OBS.metrics.inc("monitor.touch_ledger.evictions")

    def invalidate(self, fqdn: Name) -> None:
        """Drop ``fqdn``'s entry (no-op when absent); it stops standing."""
        entry = self._entries.pop(fqdn, None)
        if entry is None:
            return
        index = self._dependents
        for subject in entry.deps:
            names = index.get(subject)
            if isinstance(names, set):
                names.discard(fqdn)
                if len(names) == 1:
                    index[subject] = names.pop()
            elif names == fqdn:
                del index[subject]
        self._slots[selfcheck_slot(fqdn)].discard(fqdn)
        for window in self._windows.pop(fqdn, ()):
            window.stand(self.sweeps, -1)

    def clear(self) -> None:
        """Drop every entry, as a sweep that samples every name must."""
        for windows in self._windows.values():
            for window in windows:
                window.stand(self.sweeps, -1)
        self._entries.clear()
        self._dependents.clear()
        self._slots.clear()
        self._windows.clear()
        self._checking = {}

    def begin_sweep(
        self, fqdns: Sequence[Name], changed: Set, at: datetime
    ) -> Tuple[List[Name], int]:
        """Open a ledger sweep of ``fqdns`` at ``at``.

        Drops every proof a subject in ``changed`` voids (the dirty
        names) or whose name this sweep does not cover, takes this
        sweep's soundness slice out of the standing set, and appends
        ``at`` to :attr:`sweeps`, which extends every name still
        standing by one observation.  Returns the names left to sample,
        in ``fqdns`` order, and how many names the append extended.
        """
        swept = set(fqdns)
        if len(swept) != len(fqdns):
            # A repeated name takes one sample per occurrence, and no
            # window stands for two: sample everything.
            self.clear()
            return list(fqdns), 0
        dirty: Set[Name] = set()
        for subject in changed:
            names = self._dependents.get(subject)
            if isinstance(names, set):
                dirty.update(names)
            elif names is not None:
                dirty.add(names)
        if dirty and OBS.enabled:
            OBS.metrics.inc("journal.dirty", len(dirty))
        dirty.update(self._entries.keys() - swept)
        for fqdn in dirty:
            self.invalidate(fqdn)
        self._checking = {
            fqdn: (self._entries[fqdn], self._windows.pop(fqdn, ()))
            for fqdn in self._slots.get(len(self.sweeps) % SELFCHECK_SLOTS, ())
        }
        for _entry, windows in self._checking.values():
            for window in windows:
                window.stand(self.sweeps, -1)
        if self._checking and OBS.enabled:
            OBS.metrics.inc("selfcheck.ledger.checked", len(self._checking))
        self.sweeps.append(at)
        standing = (
            self._entries.keys() - self._checking.keys()
            if self._checking else self._entries
        )
        return (
            list(filterfalse(standing.__contains__, fqdns)),
            len(self._entries) - len(self._checking),
        )

    def confirm(self, fqdn: Name, fresh: Optional[TouchEntry]) -> bool:
        """Whether ``fqdn``'s sample settles its soundness check.

        True when ``fqdn`` is in this sweep's slice; its sample then
        mints no new proof this sweep.  When the proof ``fresh`` minted
        from the recorded state equals the installed one, the proof and
        its recency stay as they were, and the name stands again from
        the next sweep.  Otherwise the check failed, and
        :meth:`finish_sweep` drops the proof and counts it.
        """
        pending = self._checking.get(fqdn)
        if pending is None:
            return False
        if fresh != pending[0]:
            return True
        del self._checking[fqdn]
        entry, windows = pending
        if self._entries.get(fqdn) is entry:  # not evicted meanwhile
            self._windows[fqdn] = windows
            for window in windows:
                window.stand(self.sweeps, 1)
        return True

    def finish_sweep(self, cursor: int) -> int:
        """Close the sweep at journal position ``cursor``.

        Returns how many soundness checks disagreed with their proofs;
        those names' real samples were recorded, and their proofs are
        gone.
        """
        unsound = len(self._checking)
        for fqdn, (entry, _windows) in self._checking.items():
            if self._entries.get(fqdn) is entry:
                self.invalidate(fqdn)
        self._checking = {}
        self.cursor = cursor
        if unsound and OBS.enabled:
            OBS.metrics.inc("selfcheck.ledger.unsound", unsound)
        return unsound

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
    ):
        self._client = client
        self.store = store if store is not None else SnapshotStore()
        self.config = config or MonitorConfig()
        #: Optional content-addressed extraction memo (None = always
        #: re-extract, as the serial oracle does).
        self.extraction_cache = extraction_cache
        #: The world's :class:`repro.sim.revisions.RevisionJournal`.
        #: With one, healthy sweeps extend proven-clean names' windows
        #: through the :class:`TouchLedger` instead of re-sampling
        #: them; without one, every sweep samples every name.
        self.journal = journal
        self.touch_ledger = TouchLedger(cap=self.config.touch_ledger_cap)
        self.samples_taken = 0
        self.sitemap_fetches = 0
        #: Soundness checks whose full sample disagreed with the
        #: name's ledger proof (0 in a correct program).
        self.ledger_unsound = 0

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
        outcome = self._client.fetch(
            fqdn, path="/", scheme="http", at=at, headers=headers,
            retry=self.config.retry,
        )
        resolution = outcome.resolution
        features = SnapshotFeatures(
            fqdn=fqdn,
            at=at,
            dns_status=resolution.status.value if resolution else "ERROR",
            cname_chain=tuple(resolution.cname_chain) if resolution else (),
            addresses=tuple(resolution.addresses) if resolution else (),
            fetch_status=outcome.status.value,
            attempts=outcome.attempts,
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
            )
        else:
            features = self._with_html_features(
                features, outcome.response.status, body, body_hash
            )
        # Second (conditional) request: the sitemap, fetched only when
        # the page is up — the paper's "if we cannot establish an abuse
        # with confidence" follow-up, bounded to 2 requests per FQDN.
        # An unchanged page was built from ``previous`` above, so it
        # already carries the stored sitemap fields.
        if previous is None or previous.html_hash != features.html_hash or previous.sitemap_count < 0:
            features = self._with_sitemap_features(features, fqdn, at, headers)
        return features

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
    ) -> SnapshotFeatures:
        self.sitemap_fetches += 1
        outcome = self._client.fetch(
            fqdn, path="/sitemap.xml", scheme="http", at=at, headers=headers,
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
