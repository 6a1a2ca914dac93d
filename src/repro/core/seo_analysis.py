"""SEO-technique classification on abused sites (Section 5.2).

The paper finds 75% of abusive HTML contains some form of blackhat
SEO, with doorway pages dominating (62.13%), keyword stuffing on 41%
of pages, the Japanese Keyword Hack + private link networks at 7.17%,
and clickjacking on adult pages.  This module crawls a sample of pages
from each abused site (through the same HTTP client the monitor uses,
with both crawler and browser user agents so cloaking is observable)
and classifies the techniques.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from typing import List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.detection import AbuseDataset
from repro.core.monitoring import SnapshotStore
from repro.web.client import HttpClient
from repro.web.html import HtmlDocument, parse_html

CRAWLER_UA = "Mozilla/5.0 (compatible; Googlebot/2.1)"
BROWSER_UA = "Mozilla/5.0 (Windows NT 10.0) Chrome/100.0"

#: How many sitemap-sampled paths to crawl per abused site.
PAGES_PER_SITE = 4


@dataclass
class SiteSeoProfile:
    """Techniques observed on one abused FQDN."""

    fqdn: str
    pages_examined: int = 0
    pages_with_meta_keywords: int = 0
    doorway: bool = False
    link_network: bool = False
    japanese_keyword_hack: bool = False
    cloaking: bool = False
    clickjacking: bool = False
    #: Thousands of generated pages advertised via sitemap — the
    #: private-link-network / doorway-farm infrastructure of Figure 6.
    bulk_upload: bool = False
    referral_codes: Set[str] = field(default_factory=set)
    meta_keyword_counts: Counter = field(default_factory=Counter)

    @property
    def any_seo(self) -> bool:
        return any(
            (self.doorway, self.link_network, self.japanese_keyword_hack,
             self.cloaking, self.bulk_upload, self.pages_with_meta_keywords > 0)
        )


@dataclass
class SeoReport:
    """Aggregate SEO statistics across the abuse dataset."""

    profiles: List[SiteSeoProfile]
    total_pages_examined: int
    pages_with_meta_keywords: int
    top_meta_keywords: List[Tuple[str, int]]

    @property
    def seo_share(self) -> float:
        """Share of abused sites showing any SEO technique (~75%)."""
        if not self.profiles:
            return 0.0
        return sum(1 for p in self.profiles if p.any_seo) / len(self.profiles)

    @property
    def doorway_share(self) -> float:
        """Share of SEO sites using doorway pages (~62%)."""
        seo = [p for p in self.profiles if p.any_seo]
        if not seo:
            return 0.0
        return sum(1 for p in seo if p.doorway) / len(seo)

    @property
    def jkh_share(self) -> float:
        """Share of SEO sites using the Japanese Keyword Hack (~7%)."""
        seo = [p for p in self.profiles if p.any_seo]
        if not seo:
            return 0.0
        return sum(1 for p in seo if p.japanese_keyword_hack or p.link_network) / len(seo)

    @property
    def keyword_stuffing_page_rate(self) -> float:
        """Share of examined pages with a keywords meta tag (~41%)."""
        if not self.total_pages_examined:
            return 0.0
        return self.pages_with_meta_keywords / self.total_pages_examined

    @property
    def clickjacking_sites(self) -> int:
        return sum(1 for p in self.profiles if p.clickjacking)

    @property
    def referral_codes(self) -> Set[str]:
        codes: Set[str] = set()
        for profile in self.profiles:
            codes |= profile.referral_codes
        return codes


def analyze_seo(
    dataset: AbuseDataset,
    store: SnapshotStore,
    client: HttpClient,
    at: datetime,
    pages_per_site: int = PAGES_PER_SITE,
) -> SeoReport:
    """Classify SEO techniques for every abused FQDN.

    Live sites are crawled (a handful of sitemap-sampled paths, with
    crawler and browser user agents); sites already remediated are
    classified from their stored abusive index features.
    """
    profiles: List[SiteSeoProfile] = []
    total_pages = 0
    stuffed_pages = 0
    meta_counter: Counter = Counter()
    for record in dataset.records():
        profile = SiteSeoProfile(fqdn=record.fqdn)
        profile.bulk_upload = record.max_sitemap_count >= 300
        _classify_from_store(profile, store, record, meta_counter)
        if record.currently_abused:
            _classify_from_crawl(profile, client, at, pages_per_site, meta_counter)
        total_pages += profile.pages_examined
        stuffed_pages += profile.pages_with_meta_keywords
        profiles.append(profile)
    return SeoReport(
        profiles=profiles,
        total_pages_examined=total_pages,
        pages_with_meta_keywords=stuffed_pages,
        top_meta_keywords=meta_counter.most_common(12),
    )


# -- classification internals ----------------------------------------------------------


def _referral_code(url: str) -> Optional[str]:
    """The value of the actual ``ref`` query parameter, or ``None``.

    Parsed from the URL's query string rather than substring-matched:
    ``url.split("ref=")[-1]`` splits on the *last* ``ref=`` anywhere in
    the URL, so ``?ref=abc&href=/x`` yielded ``/x`` and parameters like
    ``pref=``/``href=`` could poison codes the old ``?ref=``/``&ref=``
    guard never matched.  Empty codes (``?ref=``) are treated as absent.
    """
    query = urlsplit(url).query
    if not query or "ref=" not in query:
        return None
    values = parse_qs(query).get("ref")
    return values[0] if values else None


def _is_internal_link(href: str, fqdn: str) -> bool:
    """Whether an anchor points back into ``fqdn``'s own site.

    Absolute URLs count when they name the FQDN; scheme-less relative
    hrefs (``/casino/7.html``, ``page2.html``) are same-site by
    construction — doorway farms emitting root-relative links must not
    evade the ``link_network`` classification.
    """
    if not href or href.startswith("#"):
        return False
    if href.startswith("//"):
        return fqdn in href
    split = urlsplit(href)
    if split.scheme in ("http", "https"):
        return fqdn in href
    if split.scheme:  # mailto:, javascript:, tel:, ...
        return False
    return True


def _classify_from_store(
    profile: SiteSeoProfile, store: SnapshotStore, record, meta_counter: Counter
) -> None:
    episodes = record.episodes
    for state in store.history(record.fqdn):
        features = state.features
        if not features.reachable:
            continue
        # Only the states observed inside an abuse episode are abusive
        # samples; the victim's pre-hijack content is not.
        in_episode = any(
            episode.started_at <= state.first_seen
            and (episode.ended_at is None or state.first_seen < episode.ended_at)
            for episode in episodes
        )
        if not in_episode:
            continue
        profile.pages_examined += 1
        if features.has_meta_keywords:
            profile.pages_with_meta_keywords += 1
            for keyword in features.meta_keywords:
                meta_counter[keyword] += 1
        if features.onclick_count > 0:
            profile.clickjacking = True
        for url in features.external_urls:
            code = _referral_code(url)
            if code:
                profile.doorway = True
                profile.referral_codes.add(code)
        if features.lang == "ja":
            profile.japanese_keyword_hack = True


def _classify_from_crawl(
    profile: SiteSeoProfile,
    client: HttpClient,
    at: datetime,
    pages_per_site: int,
    meta_counter: Counter,
) -> None:
    latest = client.fetch(
        profile.fqdn, path="/sitemap.xml", at=at,
        headers={"User-Agent": CRAWLER_UA},
    )
    paths: List[str] = []
    if latest.ok:
        for line in latest.response.body.splitlines():
            line = line.strip()
            if line.startswith("<loc>") and "</loc>" in line:
                url = line[len("<loc>"):line.index("</loc>")]
                path = "/" + url.split("/", 3)[-1] if url.count("/") >= 3 else "/"
                if path not in paths and path != "/":
                    paths.append(path)
            if len(paths) >= pages_per_site:
                break
    for path in paths:
        crawler_view = client.fetch(
            profile.fqdn, path=path, at=at, headers={"User-Agent": CRAWLER_UA}
        )
        if not crawler_view.ok:
            continue
        browser_view = client.fetch(
            profile.fqdn, path=path, at=at, headers={"User-Agent": BROWSER_UA}
        )
        if not browser_view.ok or browser_view.response.body != crawler_view.response.body:
            profile.cloaking = True
        document = parse_html(crawler_view.response.body)
        _classify_page(profile, document, meta_counter)


def _classify_page(
    profile: SiteSeoProfile, document: HtmlDocument, meta_counter: Counter
) -> None:
    profile.pages_examined += 1
    if "keywords" in document.meta:
        profile.pages_with_meta_keywords += 1
        for keyword in document.meta_keywords:
            meta_counter[keyword] += 1
    if document.lang == "ja":
        profile.japanese_keyword_hack = True
    if any(link.onclick for link in document.links):
        profile.clickjacking = True
    internal_links = [
        link for link in document.links
        if _is_internal_link(link.href, profile.fqdn)
    ]
    referral_codes = [
        code for code in (_referral_code(link.href) for link in document.links)
        if code
    ]
    if referral_codes:
        profile.doorway = True
        profile.referral_codes.update(referral_codes)
    text_length = len(document.visible_text())
    # Link-network pages exist *only* to link: mostly internal links,
    # no monetized click-through, and next to no content.
    if len(internal_links) >= 4 and not referral_codes and text_length < 300:
        profile.link_network = True


#: Tokens of the maintenance-facade templates.  The paper's Table 1
#: reports these as single "HTML Snippet" entries rather than as loose
#: words, so the tabulation collapses them the same way.
_FACADE_TOKENS = frozenset(
    {"comming", "soon", "sorry", "restore", "working", "maintenance",
     "undergoing", "scheduled", "wartet", "planmäßig", "check", "back",
     "services", "possible", "please"}
)


def table1_index_keywords(
    dataset: AbuseDataset, top: int = 12
) -> List[Tuple[str, int]]:
    """Table 1: most frequent extracted keywords on abusive index pages.

    Facade-template vocabulary is collapsed into one ``HTML Snippet``
    entry per page, matching the paper's presentation (its top-ranked
    "keywords" are template snippets, followed by gambling/adult terms).
    """
    counter: Counter = Counter()
    for record in dataset.records():
        facade_hits = 0
        # Sorted so the counter's insertion order — most_common's
        # tie-break — never leaks set hash order into the table.
        for keyword in sorted(record.keywords):
            tokens = set(keyword.split())
            if tokens & _FACADE_TOKENS:
                facade_hits += 1
            else:
                counter[keyword] += 1
        if facade_hits >= 2:
            counter["HTML Snippet (maintenance template)"] += 1
    return counter.most_common(top)
