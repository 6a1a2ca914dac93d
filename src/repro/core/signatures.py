"""Signature extraction, validation and matching (Section 3.2).

The paper's key methodological move: when groups of monitored assets
change in similar ways within a short window, an analyst inspects the
new content, keywords and structural features are extracted into a
*signature*, the signature is validated against a large benign corpus
(discarded if it matches), and surviving signatures then classify
further changes automatically.

A signature here is a conjunction of up to four component groups —
matching Figure 2's indicator taxonomy:

* ``keywords``: characteristic content tokens;
* ``sitemap``: a bulk-upload fingerprint (entry count / byte size);
* ``infrastructure``: external hosts the page pulls scripts/links from;
* ``template``: facade markers (the "Comming soon" maintenance pages).

All components present on a signature must hit for a match, and the
matched component set is recorded so the Figure 2 breakdown can be
computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.keywords import abuse_vocabulary_hits
from repro.core.monitoring import SnapshotFeatures


@dataclass(frozen=True)
class Signature:
    """One validated abuse signature."""

    signature_id: str
    created_at: datetime
    keywords: FrozenSet[str] = frozenset()
    min_keyword_hits: int = 2
    infrastructure: FrozenSet[str] = frozenset()
    sitemap_min_count: int = 0
    sitemap_min_bytes: int = 0
    template_markers: FrozenSet[str] = frozenset()

    @property
    def components(self) -> FrozenSet[str]:
        """Which indicator groups this signature uses (Figure 2 axes)."""
        groups = []
        if self.keywords:
            groups.append("keywords")
        if self.infrastructure:
            groups.append("infrastructure")
        if self.sitemap_min_count or self.sitemap_min_bytes:
            groups.append("sitemap")
        if self.template_markers:
            groups.append("template")
        return frozenset(groups)

    def match(self, features: SnapshotFeatures) -> Optional[FrozenSet[str]]:
        """Match the page; returns the component set on success."""
        if not features.reachable:
            return None
        if self.keywords:
            hits = len(self.keywords & features.page_tokens)
            if hits < min(self.min_keyword_hits, len(self.keywords)):
                return None
        if self.infrastructure and not (self.infrastructure & features.external_hosts):
            return None
        if self.sitemap_min_count and features.sitemap_count < self.sitemap_min_count:
            return None
        if self.sitemap_min_bytes and features.sitemap_size < self.sitemap_min_bytes:
            return None
        if self.template_markers and not (self.template_markers & features.facade_markers):
            return None
        return self.components


@dataclass
class BenignCorpus:
    """The validation corpus of known-benign assets (Section 3.2).

    Assembled from cross-sector benign snapshots; a candidate signature
    that matches anything here is discarded as a false-positive risk.
    """

    snapshots: List[SnapshotFeatures] = field(default_factory=list)
    _tokens: Set[str] = field(default_factory=set)
    _hosts: Set[str] = field(default_factory=set)

    def add(self, features: SnapshotFeatures) -> None:
        self.snapshots.append(features)
        self._tokens |= features.page_tokens
        self._hosts |= features.external_hosts

    def __len__(self) -> int:
        return len(self.snapshots)

    @property
    def token_universe(self) -> Set[str]:
        """Every token seen on any benign page."""
        return self._tokens

    @property
    def host_universe(self) -> Set[str]:
        return self._hosts

    def matches_any(self, signature: Signature) -> bool:
        """Whether the signature fires on any benign snapshot."""
        return any(signature.match(s) is not None for s in self.snapshots)


@dataclass
class ExtractorConfig:
    """Thresholds for signature extraction."""

    #: Token-set Jaccard similarity for two pages to co-cluster.
    cluster_similarity: float = 0.30
    #: Minimum cluster size before a signature is derived (the paper
    #: requires the same change across multiple assets).
    min_cluster_size: int = 2
    #: A token must appear on this share of cluster pages to be kept.
    keyword_support: float = 0.6
    #: Sitemap entry count that marks a bulk upload.
    bulk_sitemap_count: int = 300
    #: Sitemap byte size that marks a bulk upload.
    bulk_sitemap_bytes: int = 64 * 1024
    #: Minimum abuse-vocabulary hits for the analyst to confirm a
    #: cluster as malicious (the manual-inspection emulation).
    analyst_min_vocab_hits: int = 2
    #: Minimum keyword-component size; smaller keyword sets are too
    #: generic and are dropped from the signature.
    min_keyword_component: int = 3
    #: Registrar rule-out (Section 3.2): a cluster whose domains all
    #: share one registrar and owner is treated as a legitimate
    #: collective change (registrar-managed parking) and discarded.
    require_registrar_diversity: bool = True


class SignatureExtractor:
    """Derives validated signatures from co-changing suspicious pages.

    ``whois`` enables the registrar rule-out: identical changes across
    domains of a *single* registrar/owner (parked-domain rotations,
    registrar landing pages) are legitimate collective changes, not
    abuse (Section 3.2 / Figure 10).
    """

    def __init__(
        self,
        benign: BenignCorpus,
        config: Optional[ExtractorConfig] = None,
        whois=None,
    ):
        self._benign = benign
        self.config = config or ExtractorConfig()
        self._whois = whois
        self._serial = 0

    def extract(
        self, candidates: Sequence[SnapshotFeatures], at: datetime
    ) -> List[Signature]:
        """Cluster candidates and derive one signature per valid cluster."""
        clusters = self._cluster(candidates)
        signatures: List[Signature] = []
        for cluster in clusters:
            if len(cluster) < self.config.min_cluster_size:
                continue
            if self._is_single_registrar_change(cluster):
                continue  # legitimate collective change (Section 3.2)
            signature = self._derive(cluster, at)
            if signature is None:
                continue
            if self._benign.matches_any(signature):
                continue  # validation failure: discard (Section 3.2)
            signatures.append(signature)
        return signatures

    # -- clustering --------------------------------------------------------------

    def _cluster(
        self, candidates: Sequence[SnapshotFeatures]
    ) -> List[List[SnapshotFeatures]]:
        clusters: List[Tuple[Set[str], List[SnapshotFeatures]]] = []
        for features in candidates:
            tokens = set(features.page_tokens)
            placed = False
            for cluster_tokens, members in clusters:
                if _jaccard(tokens, cluster_tokens) >= self.config.cluster_similarity:
                    members.append(features)
                    cluster_tokens |= tokens
                    placed = True
                    break
            if not placed:
                clusters.append((tokens, [features]))
        return [members for _, members in clusters]

    # -- derivation ---------------------------------------------------------------

    def _derive(
        self, cluster: Sequence[SnapshotFeatures], at: datetime
    ) -> Optional[Signature]:
        support = max(2, int(len(cluster) * self.config.keyword_support))
        token_counts: Dict[str, int] = {}
        host_counts: Dict[str, int] = {}
        marker_counts: Dict[str, int] = {}
        for features in cluster:
            for token in features.page_tokens:
                token_counts[token] = token_counts.get(token, 0) + 1
            for host in features.external_hosts:
                host_counts[host] = host_counts.get(host, 0) + 1
            for marker in features.facade_markers:
                marker_counts[marker] = marker_counts.get(marker, 0) + 1

        benign_tokens = self._benign.token_universe
        keywords = frozenset(
            token
            for token, count in token_counts.items()
            if count >= support and token not in benign_tokens
        )
        if len(keywords) < self.config.min_keyword_component:
            keywords = frozenset()  # too generic to be a component
        infrastructure = frozenset(
            host
            for host, count in host_counts.items()
            if count >= support and host not in self._benign.host_universe
        )
        markers = frozenset(
            marker for marker, count in marker_counts.items() if count >= support
        )
        counts = sorted(f.sitemap_count for f in cluster if f.sitemap_count >= 0)
        sizes = sorted(f.sitemap_size for f in cluster if f.sitemap_size >= 0)
        bulk_sitemap = bool(
            counts and counts[len(counts) // 2] >= self.config.bulk_sitemap_count
        ) or bool(sizes and sizes[len(sizes) // 2] >= self.config.bulk_sitemap_bytes)

        # Analyst confirmation: the cluster must look malicious to a
        # human — spam vocabulary, a facade template, or a bulk upload.
        looks_malicious = (
            abuse_vocabulary_hits(keywords) >= self.config.analyst_min_vocab_hits
            or markers
            or bulk_sitemap
        )
        if not looks_malicious:
            return None
        if not keywords and not markers and not infrastructure and not bulk_sitemap:
            return None
        self._serial += 1
        return Signature(
            signature_id=f"sig-{self._serial:04d}",
            created_at=at,
            keywords=keywords,
            infrastructure=infrastructure if (keywords or markers) else frozenset(),
            sitemap_min_count=self.config.bulk_sitemap_count if bulk_sitemap else 0,
            template_markers=markers,
        )


    def _is_single_registrar_change(self, cluster: Sequence[SnapshotFeatures]) -> bool:
        """The paper's benign-change rule-out via registrar diversity.

        Returns True when the cluster spans several registrable domains
        yet all of them share one registrar *and* one owner — the
        fingerprint of a registrar/parking-provider rollout.
        """
        if not self.config.require_registrar_diversity or self._whois is None:
            return False
        domains = {f.fqdn for f in cluster}
        registrars = set()
        owners = set()
        for fqdn in domains:
            record = self._whois.lookup(fqdn)
            if record is None:
                return False  # unknown ownership: cannot rule out abuse
            registrars.add(record.registrar)
            owners.add(record.owner)
        sld_count = len({self._whois.lookup(f).domain for f in domains})
        return sld_count >= 2 and len(registrars) == 1 and len(owners) == 1


def _jaccard(a: Set[str], b: Set[str]) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)
