"""Ranking and query serving.

Ranking combines the Section 5.2.3 signals: keyword relevance (what
stuffing manipulates), domain age via WHOIS (what victim selection
exploits — subdomains inherit the parent's reputation), HTTPS (why
hijackers bother with certificates), and backlinks (what private link
networks inflate).  The weights are not Google's — nobody knows
Google's — but the *signals* are the ones the paper names, which is
what makes the attacks in the simulation profitable for the same
reasons they are in reality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from typing import List, Optional, Sequence

from repro.core.keywords import tokenize
from repro.dns.names import registered_domain
from repro.pki.ct_log import CTLog
from repro.search.crawler import Crawler
from repro.search.index import PageRef, SearchIndex
from repro.whois.registry import DomainRegistry


@dataclass(frozen=True)
class RankedResult:
    """One search result."""

    url: str
    fqdn: str
    title: str
    score: float


@dataclass
class RankingWeights:
    """Relative weight of each ranking signal."""

    relevance: float = 1.0
    domain_age: float = 0.35
    https: float = 0.5
    backlinks: float = 0.6


class SearchEngine:
    """Crawl + index + rank."""

    def __init__(
        self,
        crawler: Crawler,
        whois: DomainRegistry,
        ct_log: CTLog,
        weights: Optional[RankingWeights] = None,
    ):
        self._crawler = crawler
        self._whois = whois
        self._ct_log = ct_log
        self.weights = weights or RankingWeights()
        self.index = SearchIndex()
        self._last_crawl: Optional[datetime] = None

    def crawl(self, hosts: Sequence[str], at: datetime) -> int:
        """(Re)crawl hosts into the index; returns pages indexed."""
        pages = self._crawler.crawl(hosts, at)
        self._last_crawl = at
        return self.index.add_pages(pages)

    def authority(self, fqdn: str, at: datetime) -> float:
        """The host's query-independent score."""
        weights = self.weights
        score = 0.0
        record = self._whois.lookup(fqdn)
        if record is not None:
            score += weights.domain_age * math.log1p(record.age_years(at))
        if self._ct_log.first_issuance_for(fqdn) is not None:
            score += weights.https
        score += weights.backlinks * self.index.backlink_authority(fqdn)
        return score

    def search(self, query: str, at: datetime, limit: int = 10) -> List[RankedResult]:
        """Rank indexed pages for ``query``."""
        query_tokens = tokenize(query)
        results: List[RankedResult] = []
        for ref in self.index.candidates(query_tokens):
            relevance = self.index.match_score(ref, query_tokens)
            if relevance <= 0:
                continue
            score = self.weights.relevance * relevance + self.authority(ref.fqdn, at)
            page = self.index.page(ref)
            results.append(
                RankedResult(url=ref.url, fqdn=ref.fqdn, title=page.title, score=score)
            )
        results.sort(key=lambda r: (-r.score, r.url))
        return results[:limit]
