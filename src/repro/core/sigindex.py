"""Inverted candidate indexes for signature matching (the fast path).

The paper's detection pipeline (Figure 25) is quadratic in the world:
every weekly changed state is tested against the full validated
signature store, and every freshly extracted signature is re-run over
the entire snapshot history.  Both scans are almost entirely wasted
work — a signature is a *conjunction* of component groups, so it can
only possibly fire on a page that contains at least one token of each
required group.  This module exploits that:

* :class:`SignatureIndex` — detector-side.  Each signature is indexed
  under one required component group (its *anchor*): template markers
  when present, else infrastructure hosts, else keywords.  A page's
  candidate set is the union of the postings its own tokens hit, so
  ``_match_existing`` tests a handful of signatures instead of all of
  them.  Signatures with no token-like anchor (sitemap-threshold-only
  or degenerate) sit in a small always-checked bucket.

* :class:`PostingIndex` — store-side.  ``SnapshotStore`` feeds every
  newly recorded state's tokens (page tokens, external hosts, facade
  markers) into a token → FQDN-set posting map, so a retrospective
  rescan visits only FQDNs whose history contains at least one anchor
  token of the new signature.  The map is memory-capped: when the
  total posting count exceeds the cap, the largest (least selective)
  posting lists are evicted and their tokens marked *unprunable* — a
  query touching an evicted token conservatively returns "cannot
  prune", never a false negative.

Both indexes are strictly candidate *generators*: every candidate is
still verified with :meth:`Signature.match`, so the indexed path is
byte-identical to the linear scan — same matches, same order, same
export digests — just without testing signatures that cannot fire.

The token-extraction helpers (:func:`page_tokens`,
:func:`external_hosts`, :func:`facade_markers`) define a state's
component sets.  They live here, below both
:mod:`repro.core.monitoring` and :mod:`repro.core.signatures` in the
import graph; each ``SnapshotFeatures`` derives them once, through the
cached properties of the same names that every matcher reads, and
``signatures`` re-exports them for compatibility.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from repro.core.keywords import tokenize
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.monitoring import SnapshotFeatures
    from repro.core.signatures import Signature

#: Facade phrases (lower-cased) that fingerprint hijack placeholder pages.
MAINTENANCE_MARKERS: Tuple[str, ...] = (
    "comming soon",
    "undergoing scheduled maintenance",
    "planmäßig gewartet",
    "メンテナンス中",
    "restore all services",
    "automatically generated by the system",
)

#: Default cap on total (token, FQDN) posting pairs in a
#: :class:`PostingIndex` — roughly tens of MB at paper scale, far below
#: the snapshot store it summarises.
DEFAULT_POSTING_CAP = 2_000_000

#: The one empty component set.  Each state keeps the sets it derives,
#: and most have no external hosts or facade markers.
_NONE: FrozenSet[str] = frozenset()


def _host_of(url: str) -> str:
    without_scheme = url.split("//", 1)[-1]
    return without_scheme.split("/", 1)[0].split(":", 1)[0].lower()


def page_tokens(features: "SnapshotFeatures") -> FrozenSet[str]:
    """The token set a signature's keyword component matches against."""
    tokens: Set[str] = set()
    for keyword in features.keywords:
        tokens.update(keyword.split(" "))
    for keyword in features.meta_keywords:
        tokens.update(tokenize(keyword))
    return frozenset(tokens) or _NONE


def external_hosts(features: "SnapshotFeatures") -> FrozenSet[str]:
    """External hosts referenced by the page (infrastructure indicators)."""
    hosts = {_host_of(u) for u in features.external_urls}
    hosts |= {_host_of(s) for s in features.script_srcs if "//" in s}
    return frozenset(h for h in hosts if h and h != features.fqdn) or _NONE


def facade_markers(features: "SnapshotFeatures") -> FrozenSet[str]:
    """Maintenance-facade markers present in the page title/keywords."""
    haystack = " ".join([features.title.lower()] + sorted(features.keywords))
    return frozenset(m for m in MAINTENANCE_MARKERS if m in haystack) or _NONE


def state_tokens(features: "SnapshotFeatures") -> FrozenSet[str]:
    """Every indexable token one stored state contributes to postings."""
    return features.page_tokens | features.external_hosts | features.facade_markers


def signature_anchor(signature: "Signature") -> Tuple[str, FrozenSet[str]]:
    """``(kind, tokens)`` — the component group a signature is indexed by.

    The anchor must be a group the signature *requires*: a match is
    impossible unless at least one anchor token appears on the page.
    Preference order is selectivity — template markers come from a
    six-phrase universe, infrastructure hosts are rare, keywords are
    common.  A keyword group with an effective hit floor below one
    (``min_keyword_hits`` forced to zero) cannot anchor, because the
    group can then fire with zero shared tokens.  Signatures with no
    token anchor fall back to ``"sitemap"`` (numeric thresholds only)
    or ``"scan"`` (nothing to prune on — always a candidate).
    """
    if signature.template_markers:
        return "template", signature.template_markers
    if signature.infrastructure:
        return "infrastructure", signature.infrastructure
    if signature.keywords and min(signature.min_keyword_hits, len(signature.keywords)) >= 1:
        return "keywords", signature.keywords
    if signature.sitemap_min_count or signature.sitemap_min_bytes:
        return "sitemap", frozenset()
    return "scan", frozenset()


class SignatureIndex:
    """Detector-side inverted index: component token → signature ids.

    Ids are positions in the detector's ``signatures`` list, so
    candidates iterate in insertion order and the indexed match list is
    identical to the linear scan's.  Maintained incrementally via
    :meth:`add`; :meth:`sync` catches signatures appended to the list
    behind the index's back.
    """

    def __init__(self) -> None:
        self._marker_postings: Dict[str, List[int]] = {}
        self._host_postings: Dict[str, List[int]] = {}
        self._keyword_postings: Dict[str, List[int]] = {}
        #: Signatures with no token anchor — always candidates.
        self._unindexed: List[int] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, signature: "Signature") -> None:
        """Index the next signature (its id is the current size)."""
        sig_id = self._size
        kind, anchor = signature_anchor(signature)
        if kind == "template":
            postings = self._marker_postings
        elif kind == "infrastructure":
            postings = self._host_postings
        elif kind == "keywords":
            postings = self._keyword_postings
        else:
            self._unindexed.append(sig_id)
            self._size += 1
            return
        for token in anchor:
            postings.setdefault(token, []).append(sig_id)
        self._size += 1

    def sync(self, signatures: List["Signature"]) -> None:
        """Fold in any signatures appended since the last call."""
        for signature in signatures[self._size:]:
            self.add(signature)

    def candidates(
        self,
        tokens: Iterable[str],
        hosts: Iterable[str],
        markers: Iterable[str],
    ) -> List[int]:
        """Signature ids that could possibly match a page, ascending.

        ``tokens``/``hosts``/``markers`` are the page's own component
        sets; each is looked up only against the matching posting kind,
        so a keyword can never accidentally activate a host-anchored
        signature.
        """
        found: Set[int] = set(self._unindexed)
        for marker in markers:
            found.update(self._marker_postings.get(marker, ()))
        for host in hosts:
            found.update(self._host_postings.get(host, ()))
        for token in tokens:
            found.update(self._keyword_postings.get(token, ()))
        return sorted(found)


class PostingIndex:
    """Store-side token → FQDN postings with a conservative memory cap.

    When total posting pairs exceed ``cap``, the largest posting lists
    (ties broken lexicographically for determinism) are evicted and
    their tokens join the *unprunable* set: future adds skip them and
    a query touching one returns ``None`` ("cannot prune"), so capped
    memory can cost speed but never correctness.  Evicting the biggest
    lists first is also the cheapest pruning power to give up — a token
    carried by most FQDNs barely narrows a rescan anyway.
    """

    def __init__(self, cap: int = DEFAULT_POSTING_CAP):
        if cap <= 0:
            raise ValueError(f"cap must be positive, got {cap}")
        self.cap = cap
        self._postings: Dict[str, Set[str]] = {}
        self._unprunable: Set[str] = set()
        self._entries = 0
        self.evictions = 0

    def __len__(self) -> int:
        return self._entries

    def add(self, fqdn: str, tokens: Iterable[str]) -> None:
        """Post ``fqdn`` under every token of one newly stored state."""
        for token in tokens:
            if token in self._unprunable:
                continue
            postings = self._postings.setdefault(token, set())
            if fqdn not in postings:
                postings.add(fqdn)
                self._entries += 1
        if self._entries > self.cap:
            self._evict()

    def _evict(self) -> None:
        """Drop the largest posting lists until back under the cap."""
        by_burden = sorted(
            self._postings, key=lambda t: (-len(self._postings[t]), t)
        )
        for token in by_burden:
            if self._entries <= self.cap:
                break
            self._entries -= len(self._postings.pop(token))
            self._unprunable.add(token)
            self.evictions += 1
            if OBS.enabled:
                OBS.metrics.inc("store.postings.evictions")

    def candidate_fqdns(self, tokens: Iterable[str]) -> Optional[Set[str]]:
        """FQDNs whose history contains at least one of ``tokens``.

        ``None`` means the index cannot answer soundly — the token set
        is empty, or one of the tokens was evicted — and the caller
        must fall back to a full scan.
        """
        result: Set[str] = set()
        answered = False
        for token in tokens:
            if token in self._unprunable:
                return None
            answered = True
            hits = self._postings.get(token)
            if hits:
                result |= hits
        return result if answered else None
