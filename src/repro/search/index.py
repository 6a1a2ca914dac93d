"""Inverted index and host link graph."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from repro.search.crawler import CrawledPage


@dataclass(frozen=True)
class PageRef:
    """Identity of one indexed page."""

    fqdn: str
    path: str

    @property
    def url(self) -> str:
        return f"http://{self.fqdn}{self.path}"


class SearchIndex:
    """Token postings plus a host-level backlink graph."""

    def __init__(self) -> None:
        self._postings: Dict[str, Set[PageRef]] = defaultdict(set)
        self._pages: Dict[PageRef, CrawledPage] = {}
        self._backlinks: Dict[str, Set[str]] = defaultdict(set)  # host -> linking hosts

    def add_page(self, page: CrawledPage) -> PageRef:
        """Index one crawled page and its outgoing host links."""
        ref = PageRef(fqdn=page.fqdn.lower(), path=page.path)
        self._pages[ref] = page
        for keyword in page.keywords:
            for token in keyword.split(" "):
                self._postings[token].add(ref)
        for url in page.outlinks:
            host = url.split("//", 1)[-1].split("/", 1)[0].lower()
            if host and host != ref.fqdn:
                self._backlinks[host].add(ref.fqdn)
        return ref

    def add_pages(self, pages: Iterable[CrawledPage]) -> int:
        count = 0
        for page in pages:
            self.add_page(page)
            count += 1
        return count

    # -- queries -----------------------------------------------------------------

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def host_count(self) -> int:
        return len({ref.fqdn for ref in self._pages})

    def pages_for_token(self, token: str) -> Set[PageRef]:
        return set(self._postings.get(token.lower(), set()))

    def candidates(self, query_tokens: List[str]) -> Set[PageRef]:
        """Pages matching at least one query token."""
        out: Set[PageRef] = set()
        for token in query_tokens:
            out |= self.pages_for_token(token)
        return out

    def page(self, ref: PageRef) -> CrawledPage:
        return self._pages[ref]

    def match_score(self, ref: PageRef, query_tokens: List[str]) -> float:
        """Keyword-relevance component: how many query tokens the page
        carries, with a title bonus."""
        page = self._pages[ref]
        page_tokens: Set[str] = set()
        for keyword in page.keywords:
            page_tokens.update(keyword.split(" "))
        hits = sum(1 for token in query_tokens if token in page_tokens)
        if hits == 0:
            return 0.0
        title_tokens = set(page.title.lower().split())
        title_hits = sum(1 for token in query_tokens if token in title_tokens)
        return hits + 0.5 * title_hits

    def backlink_count(self, host: str) -> int:
        """Distinct hosts linking to ``host``."""
        return len(self._backlinks.get(host.lower(), set()))

    def backlink_authority(self, host: str) -> float:
        """Log-scaled backlink signal."""
        return math.log1p(self.backlink_count(host))
