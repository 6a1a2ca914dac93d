"""A polite web crawler.

Crawls hosts the way a search spider does: fetch the index with a bot
user agent (so cloaked content is served — the JKH's whole point),
discover further pages from sitemaps and same-host links, and follow a
bounded number of them.  Cross-host links are not followed but are
recorded as backlink edges for the ranking graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.keywords import extract_keywords
from repro.web.client import HttpClient
from repro.web.html import parse_html
from repro.web.sitemap import parse_sitemap

#: The spider identifies itself; cloaking sites key on this.
CRAWLER_USER_AGENT = "Mozilla/5.0 (compatible; SimBot/1.0; +http://sim.example/bot)"


@dataclass(frozen=True)
class CrawledPage:
    """One fetched page, reduced to indexable features."""

    fqdn: str
    path: str
    title: str
    lang: str
    keywords: frozenset
    outlinks: Tuple[str, ...]  # absolute URLs only
    internal_paths: Tuple[str, ...]  # same-host relative links
    fetched_at: datetime


@dataclass
class CrawlStats:
    """Aggregate crawl accounting."""

    hosts_attempted: int = 0
    hosts_reached: int = 0
    pages_fetched: int = 0
    fetch_failures: int = 0


class Crawler:
    """Breadth-limited per-host crawler."""

    def __init__(self, client: HttpClient, pages_per_host: int = 5):
        self._client = client
        self.pages_per_host = pages_per_host
        self.stats = CrawlStats()

    def crawl_host(self, fqdn: str, at: datetime) -> List[CrawledPage]:
        """Fetch the index plus a few discovered pages of one host."""
        self.stats.hosts_attempted += 1
        headers = {"User-Agent": CRAWLER_USER_AGENT}
        index = self._fetch_page(fqdn, "/", at, headers)
        if index is None:
            self.stats.fetch_failures += 1
            return []
        self.stats.hosts_reached += 1
        pages = [index]
        for path in self._discover_paths(fqdn, index, at, headers):
            if len(pages) >= self.pages_per_host:
                break
            page = self._fetch_page(fqdn, path, at, headers)
            if page is not None:
                pages.append(page)
        return pages

    def crawl(self, hosts: Sequence[str], at: datetime) -> List[CrawledPage]:
        """Crawl many hosts; failures are skipped silently (bots move on)."""
        pages: List[CrawledPage] = []
        for fqdn in hosts:
            pages.extend(self.crawl_host(fqdn, at))
        return pages

    # -- internals ------------------------------------------------------------

    def _fetch_page(
        self, fqdn: str, path: str, at: datetime, headers: Dict[str, str]
    ) -> Optional[CrawledPage]:
        outcome = self._client.fetch(fqdn, path=path, at=at, headers=headers)
        if not outcome.ok or not outcome.response.ok:
            return None
        if outcome.response.content_type != "text/html":
            return None
        self.stats.pages_fetched += 1
        document = parse_html(outcome.response.body)
        outlinks = tuple(
            url for url in document.all_urls() if url.startswith(("http://", "https://"))
        )
        internal = tuple(
            link.href for link in document.links
            if link.href.startswith("/") and not link.href.startswith("//")
        )
        return CrawledPage(
            fqdn=fqdn, path=path, title=document.title, lang=document.lang,
            keywords=extract_keywords(document), outlinks=outlinks,
            internal_paths=internal, fetched_at=at,
        )

    def _discover_paths(
        self, fqdn: str, index: CrawledPage, at: datetime, headers: Dict[str, str]
    ) -> List[str]:
        paths: List[str] = []
        seen: Set[str] = {"/"}
        # Sitemap first — that's where bulk uploads advertise themselves.
        outcome = self._client.fetch(fqdn, path="/sitemap.xml", at=at, headers=headers)
        if outcome.ok and outcome.response.ok:
            for url in parse_sitemap(outcome.response.body).urls():
                path = _same_host_path(url, fqdn)
                if path and path not in seen:
                    seen.add(path)
                    paths.append(path)
                if len(paths) >= self.pages_per_host * 2:
                    break
        for candidate in index.internal_paths:
            if candidate not in seen:
                seen.add(candidate)
                paths.append(candidate)
        for url in index.outlinks:
            path = _same_host_path(url, fqdn)
            if path and path not in seen:
                seen.add(path)
                paths.append(path)
        return paths


def _same_host_path(url: str, fqdn: str) -> Optional[str]:
    without_scheme = url.split("//", 1)[-1]
    host, _, rest = without_scheme.partition("/")
    if host.lower() != fqdn.lower():
        return None
    return "/" + rest if rest else "/"
