"""Registrar diversity of abuse clusters (Section 3.2, Figure 10).

To rule out registrar-driven collective changes, the paper groups
abused domains by identical extracted keyword sets and counts the
distinct registrars per cluster: in 89% of multi-domain clusters the
same change spans 2+ registrars (and owners), proving a third party —
not a registrar — made the change.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.core.detection import AbuseDataset
from repro.whois.registry import DomainRegistry


@dataclass
class RegistrarDiversityReport:
    """Cluster-by-registrar-count distribution."""

    cluster_count: int
    multi_domain_clusters: int
    #: registrar-count -> number of multi-domain clusters with >= that many.
    at_least: Dict[int, int]
    share_spanning_2plus: float
    share_spanning_4plus: float

    def curve(self, up_to: int = 8) -> List[Tuple[int, float]]:
        """Figure 10's curve: % clusters spanning >= X registrars."""
        if not self.multi_domain_clusters:
            return [(x, 0.0) for x in range(1, up_to + 1)]
        return [
            (x, self.at_least.get(x, 0) / self.multi_domain_clusters)
            for x in range(1, up_to + 1)
        ]


def cluster_by_signature(dataset: AbuseDataset) -> List[List[str]]:
    """Group abused FQDNs whose content matched the same signatures.

    Matching signature sets proxies "identical change in content", the
    paper's keyword-list grouping.
    """
    clusters: Dict[FrozenSet[str], List[str]] = defaultdict(list)
    for record in dataset.records():
        key = frozenset(record.signature_ids)
        if key:
            clusters[key].append(record.fqdn)
    return [sorted(members) for members in clusters.values()]


def analyze_registrar_diversity(
    dataset: AbuseDataset, whois: DomainRegistry
) -> RegistrarDiversityReport:
    """Count distinct registrars (and owners) per same-change cluster."""
    clusters = cluster_by_signature(dataset)
    multi = 0
    registrar_counts: List[int] = []
    for members in clusters:
        slds = set()
        registrars = set()
        for fqdn in members:
            record = whois.lookup(fqdn)
            if record is not None:
                slds.add(record.domain)
                registrars.add(record.registrar)
        if len(slds) < 2:
            continue
        multi += 1
        registrar_counts.append(len(registrars))

    at_least: Dict[int, int] = {}
    for threshold in range(1, 12):
        at_least[threshold] = sum(1 for c in registrar_counts if c >= threshold)
    return RegistrarDiversityReport(
        cluster_count=len(clusters),
        multi_domain_clusters=multi,
        at_least=at_least,
        share_spanning_2plus=(at_least.get(2, 0) / multi) if multi else 0.0,
        share_spanning_4plus=(at_least.get(4, 0) / multi) if multi else 0.0,
    )
