"""Attacker-infrastructure clustering (Section 6, Figures 22/27/28).

Identifiers appearing on the same hijacked pages belong to the same
operation.  The paper clusters identifiers by the domains they share:
the distance between two identifiers is ``1 - Jaccard(domains(a),
domains(b))`` (0 = identical domain sets, 1 = disjoint), hierarchical
single-linkage clustering is cut at 0.95, and connected groupings are
read off — 1,798 clusters, mostly singletons, plus one giant
1,609-identifier component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.identifiers import IdentifierMap
from repro.dns.names import Name

#: The paper's dendrogram cutoff.
DEFAULT_CUTOFF = 0.95


@dataclass(frozen=True)
class IdentifierCluster:
    """One recovered attacker infrastructure."""

    cluster_id: int
    identifiers: Tuple[str, ...]
    domains: Tuple[Name, ...]

    @property
    def identifier_count(self) -> int:
        return len(self.identifiers)

    @property
    def domain_count(self) -> int:
        return len(self.domains)


@dataclass(frozen=True)
class DendrogramMerge:
    """One merge step (for plotting the Figure 28 dendrogram).

    ``left``/``right`` are the *canonical representatives* of the two
    components being merged — the smallest identifier index each
    component contains — not union-find internals.  Representatives are
    stable across the whole merge sequence (the merged component keeps
    ``min(left, right)``), so a plotter can follow the tree without
    ever seeing a label that was not itself a prior merge product or an
    original leaf.
    """

    left: int
    right: int
    distance: float
    size: int


@dataclass
class ClusteringReport:
    """The full clustering output."""

    clusters: List[IdentifierCluster]
    merges: List[DendrogramMerge]
    cutoff: float

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    @property
    def largest(self) -> Optional[IdentifierCluster]:
        return self.clusters[0] if self.clusters else None

    def covered_domains(self) -> Set[Name]:
        covered: Set[Name] = set()
        for cluster in self.clusters:
            covered |= set(cluster.domains)
        return covered

    def top_by_domains(self, limit: int = 50) -> List[IdentifierCluster]:
        """Figure 22: clusters ranked by hijacked-domain count."""
        return sorted(self.clusters, key=lambda c: -c.domain_count)[:limit]


def jaccard_distance(a: Set[Name], b: Set[Name]) -> float:
    """1 - Jaccard similarity of two domain sets."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 1.0
    return 1.0 - len(a & b) / union


def cluster_identifiers(
    identifier_map: IdentifierMap, cutoff: float = DEFAULT_CUTOFF
) -> ClusteringReport:
    """Single-linkage agglomerative clustering with a distance cutoff.

    Single linkage at a cutoff equals connected components over the
    graph of identifier pairs closer than the cutoff, so clusters are
    computed with union-find; the merge sequence for the dendrogram is
    recorded from a straightforward agglomerative pass.
    """
    items = sorted(identifier_map.all_identifiers().items())
    names = [name for name, _ in items]
    domain_sets = [set(domains) for _, domains in items]
    n = len(names)

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    # Index identifiers by domain so only co-occurring pairs are compared
    # (the distance of non-co-occurring pairs is 1.0 > any cutoff < 1).
    by_domain: Dict[Name, List[int]] = {}
    for index, domains in enumerate(domain_sets):
        for domain in domains:
            by_domain.setdefault(domain, []).append(index)

    merges: List[DendrogramMerge] = []
    pairs: Set[Tuple[int, int]] = set()
    for indices in by_domain.values():
        for position, left in enumerate(indices):
            for right in indices[position + 1:]:
                pairs.add((left, right) if left < right else (right, left))
    scored = sorted(
        (jaccard_distance(domain_sets[a], domain_sets[b]), a, b) for a, b in pairs
    )
    component_size = {i: 1 for i in range(n)}
    # Canonical representative per component root: the smallest member
    # index.  Recording union-find roots directly would leak arbitrary
    # path-compression/union-order artifacts into the Figure 28 merge
    # sequence (labels that were never a merge product); the canonical
    # representative is stable no matter how the forest is shaped.
    representative = {i: i for i in range(n)}
    for distance, a, b in scored:
        if distance > cutoff:
            break
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        size = component_size[ra] + component_size[rb]
        left, right = representative[ra], representative[rb]
        merges.append(DendrogramMerge(left=left, right=right, distance=distance, size=size))
        union(ra, rb)
        root = find(ra)
        component_size[root] = size
        representative[root] = min(left, right)

    groups: Dict[int, List[int]] = {}
    for index in range(n):
        groups.setdefault(find(index), []).append(index)

    clusters: List[IdentifierCluster] = []
    for cluster_id, members in enumerate(
        sorted(groups.values(), key=lambda m: -len(m))
    ):
        identifiers = tuple(names[i] for i in members)
        domains: Set[Name] = set()
        for i in members:
            domains |= domain_sets[i]
        clusters.append(
            IdentifierCluster(
                cluster_id=cluster_id,
                identifiers=identifiers,
                domains=tuple(sorted(domains)),
            )
        )
    return ClusteringReport(clusters=clusters, merges=merges, cutoff=cutoff)


def cooccurrence_edges(
    identifier_map: IdentifierMap,
) -> List[Tuple[str, str, int]]:
    """Figure 27's network-graph edges: shared-domain counts per pair.

    Computed with a postings walk over the same ``by_domain`` inverted
    index clustering builds: each domain contributes one count to every
    pair of identifiers it appears on, so the cost is proportional to
    the co-occurring pairs (sum of per-domain posting sizes squared),
    not to all :math:`n^2` identifier pairs — almost all of which share
    nothing and produce no edge.  Byte-identical output to the naive
    all-pairs scan (:func:`cooccurrence_edges_naive`), which is kept as
    the parity/benchmark baseline.
    """
    items = sorted(identifier_map.all_identifiers().items())
    names = [name for name, _ in items]
    by_domain: Dict[Name, List[int]] = {}
    for index, (_, domains) in enumerate(items):
        for domain in set(domains):
            by_domain.setdefault(domain, []).append(index)
    shared: Dict[Tuple[int, int], int] = {}
    for indices in by_domain.values():
        # Postings are appended in increasing identifier index, so every
        # emitted pair is already (smaller, larger).
        for position, left in enumerate(indices):
            for right in indices[position + 1:]:
                pair = (left, right)
                shared[pair] = shared.get(pair, 0) + 1
    return [
        (names[a], names[b], count)
        for (a, b), count in sorted(shared.items())
    ]


def cooccurrence_edges_naive(
    identifier_map: IdentifierMap,
) -> List[Tuple[str, str, int]]:
    """The paper-literal O(n²) all-pairs scan (parity/bench baseline)."""
    items = sorted(identifier_map.all_identifiers().items())
    edges: List[Tuple[str, str, int]] = []
    for i, (name_a, domains_a) in enumerate(items):
        for name_b, domains_b in items[i + 1:]:
            shared = len(set(domains_a) & set(domains_b))
            if shared:
                edges.append((name_a, name_b, shared))
    return edges


#: Node colours of Figure 27: IPs red, contacts green, shorteners blue.
_KIND_COLORS = {"ip": "red", "phone": "green", "social": "green",
                "short-link": "blue"}


def cooccurrence_to_dot(identifier_map: IdentifierMap) -> str:
    """Render the Figure 27 network graph as Graphviz DOT.

    Node size scales with the identifier's domain count, edge weight
    with the number of shared domains, colours follow the paper's
    legend (IPs red, contact info green, shortener links blue).
    """
    lines = ["graph attacker_infrastructure {", "  layout=neato;", "  overlap=false;"]
    all_ids = identifier_map.all_identifiers()
    for name, domains in sorted(all_ids.items()):
        kind = identifier_map.kind_of(name)
        color = _KIND_COLORS.get(kind, "gray")
        size = 0.2 + 0.08 * len(domains)
        label = name.replace('"', "'")
        lines.append(
            f'  "{label}" [color={color}, width={size:.2f}, shape=circle, label=""];'
        )
    for a, b, shared in cooccurrence_edges(identifier_map):
        lines.append(
            f'  "{a}" -- "{b}" [penwidth={min(6, shared)}];'
        )
    lines.append("}")
    return "\n".join(lines)
