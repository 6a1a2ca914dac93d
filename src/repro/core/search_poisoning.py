"""Search poisoning measurement (Section 5.2.3's consequence).

The paper explains *why* the SEO works — hijacked subdomains inherit
parent-domain reputation, so doorway pages rank.  With a search engine
in the simulation, the outcome is measurable: for gambling queries, how
many of the top results are hijacked domains, and how much the victim's
inherited authority boosts the attacker's pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import List, Sequence, Set, Tuple

from repro.core.detection import AbuseDataset
from repro.search.engine import RankedResult, SearchEngine

#: The query mix Indonesian gambling SEO targets (Table 5 vocabulary).
DEFAULT_QUERIES: Tuple[str, ...] = (
    "slot gacor",
    "judi online terpercaya",
    "daftar situs slot",
    "agen bola sbobet",
    "adult videos",
)


@dataclass
class QueryPoisoning:
    """Poisoning of one query's results."""

    query: str
    results: List[RankedResult]
    poisoned_ranks: List[int]  # 1-based ranks held by hijacked domains

    @property
    def poisoned_share(self) -> float:
        return len(self.poisoned_ranks) / len(self.results) if self.results else 0.0

    @property
    def best_poisoned_rank(self) -> int:
        return min(self.poisoned_ranks) if self.poisoned_ranks else 0


@dataclass
class PoisoningReport:
    """Search poisoning across the query mix."""

    queries: List[QueryPoisoning]
    indexed_pages: int
    indexed_hosts: int

    @property
    def mean_poisoned_share(self) -> float:
        if not self.queries:
            return 0.0
        return sum(q.poisoned_share for q in self.queries) / len(self.queries)

    def rows(self) -> List[Tuple[str, int, str, int]]:
        return [
            (
                q.query,
                len(q.poisoned_ranks),
                f"{q.poisoned_share * 100:.0f}%",
                q.best_poisoned_rank,
            )
            for q in self.queries
        ]


def measure_poisoning(
    engine: SearchEngine,
    dataset: AbuseDataset,
    at: datetime,
    queries: Sequence[str] = DEFAULT_QUERIES,
    top_k: int = 10,
) -> PoisoningReport:
    """Run the query mix and mark results on hijacked domains."""
    hijacked: Set[str] = set(dataset.abused_fqdns())
    out: List[QueryPoisoning] = []
    for query in queries:
        results = engine.search(query, at, limit=top_k)
        poisoned = [
            rank
            for rank, result in enumerate(results, start=1)
            if result.fqdn in hijacked
        ]
        out.append(QueryPoisoning(query=query, results=results, poisoned_ranks=poisoned))
    return PoisoningReport(
        queries=out,
        indexed_pages=engine.index.page_count,
        indexed_hosts=engine.index.host_count,
    )
