"""Abuse content generation.

Builds the page types the paper catalogues on hijacked domains
(Sections 3.2 and 5.2): the multilingual "under maintenance" facade
with the telltale ``Comming`` typo, gambling/adult doorway pages with
stuffed keyword meta tags and referral links, Japanese-Keyword-Hack
pages, private-link-network pages, clickjacking pages, and the
thousands-of-randomly-named-pages sitemaps of Figure 6.  Pages embed
the group's identifiers (WhatsApp phone links, Telegram handles,
shortener links, backend-IP script sources) so that infrastructure
clustering has signal to recover.
"""

from __future__ import annotations

import random
from datetime import datetime
from itertools import chain
from typing import List, Optional, Sequence

from repro.content.vocab import (
    ADULT_KEYWORDS,
    GAMBLING_KEYWORDS,
    GENERIC_SPAM_WORDS,
    JAPANESE_SPAM_WORDS,
    MAINTENANCE_PHRASES,
    PHARMA_KEYWORDS,
    Topic,
)
from repro.web.html import HtmlDocument, Link, Script
from repro.web.sitemap import Sitemap

_TOPIC_POOLS = {
    Topic.GAMBLING: GAMBLING_KEYWORDS,
    Topic.ADULT: ADULT_KEYWORDS,
    Topic.PHARMA: PHARMA_KEYWORDS,
    Topic.GENERIC_SPAM: GENERIC_SPAM_WORDS,
    Topic.JAPANESE_SEO: JAPANESE_SPAM_WORDS,
}

_TOPIC_LANG = {
    Topic.GAMBLING: "id",
    Topic.ADULT: "en",
    Topic.PHARMA: "en",
    Topic.GENERIC_SPAM: "id",
    Topic.JAPANESE_SEO: "ja",
}


class AbuseContentFactory:
    """Generates abuse pages for one attacker group."""

    def __init__(self, rng: random.Random, group_name: str):
        self._rng = rng
        self.group_name = group_name

    # -- facade -----------------------------------------------------------------

    def maintenance_facade(self) -> HtmlDocument:
        """The under-maintenance error page hijacks hide behind.

        Matches the paper's observation (Section 3) that freshly
        hijacked domains of large organizations all showed similar
        maintenance pages in different languages — with thousands of
        SEO pages behind them.
        """
        phrase = self._rng.choice(MAINTENANCE_PHRASES)
        doc = HtmlDocument(title="Comming soon ...", lang="en")
        doc.headings = ["SORRY!"]
        doc.paragraphs = [
            phrase,
            "We're working to restore all services as soon as possible. "
            "Please check back soon",
        ]
        doc.links = [Link(href="/sitemap.xml", text="Sitemap")]
        return doc

    # -- doorway & SEO pages --------------------------------------------------------

    def doorway_page(
        self,
        topic: Topic,
        monetized_url: str,
        referral_code: str,
        identifiers: Sequence[str],
        sibling_urls: Sequence[str] = (),
        stuff_meta_keywords: bool = True,
        wordpress_generator: bool = False,
    ) -> HtmlDocument:
        """A doorway page: ranks for keywords, funnels to the paymaster.

        ``identifiers`` are the group identifiers stamped onto this
        page (phones become WhatsApp links, IPs become script sources).
        ``sibling_urls`` creates the 2-way private link network.
        """
        pool = _TOPIC_POOLS[topic]
        words = self._sample_keywords(pool, 8)
        doc = HtmlDocument(
            title=" ".join(words[:4]).title(),
            lang=_TOPIC_LANG[topic],
        )
        doc.meta["description"] = " ".join(words)
        if stuff_meta_keywords:
            doc.meta["keywords"] = ", ".join(self._sample_keywords(pool, 12))
        if wordpress_generator:
            doc.meta["generator"] = "WordPress 5.8.1"
        doc.meta["og:title"] = f"{words[0]} {words[1]} terpercaya"
        doc.headings = [f"Daftar {words[0]} {words[1]}".strip()]
        doc.paragraphs = [
            " ".join(self._sample_keywords(pool, 20)),
            f"{words[0]} {words[2]} resmi dengan bonus terbesar. "
            f"Daftar sekarang dan menang {words[3]}.",
        ]
        # Ads-monetized groups link plain; referral groups attach the
        # code the paymaster's traffic accounting keys on (Figure 24).
        referral_url = (
            f"{monetized_url}?ref={referral_code}" if referral_code else monetized_url
        )
        doc.links.append(Link(href=referral_url, text=f"DAFTAR {words[0].upper()}"))
        doc.links.append(Link(href=referral_url, text="LOGIN"))
        for identifier in identifiers:
            doc.links.append(self._identifier_link(identifier))
        for url in sibling_urls:
            doc.links.append(Link(href=url, text=" ".join(self._sample_keywords(pool, 2))))
        backend_ips = [i for i in identifiers if _looks_like_ip(i)]
        if backend_ips:
            doc.scripts.append(Script(src=f"http://{backend_ips[0]}/js/popunder.js"))
            doc.images.append(f"http://{backend_ips[0]}/banners/promo.gif")
        return doc

    def japanese_page(self, sibling_urls: Sequence[str] = ()) -> HtmlDocument:
        """A Japanese-Keyword-Hack cloaked page (Section 5.2.1)."""
        words = self._sample_keywords(JAPANESE_SPAM_WORDS, 8)
        doc = HtmlDocument(title=" ".join(words[:3]), lang="ja")
        doc.meta["description"] = " ".join(words)
        doc.headings = [" ".join(words[:2])]
        doc.paragraphs = [
            " ".join(self._sample_keywords(JAPANESE_SPAM_WORDS, 25)),
            "著作権 © 2020 日本の無料プログ. 全著作権所有.",
        ]
        doc.links = [Link(href="/sitemap.xml", text="ページディレクトリ")]
        for url in sibling_urls:
            doc.links.append(Link(href=url, text=self._rng.choice(JAPANESE_SPAM_WORDS)))
        return doc

    def clickjacking_page(self, monetized_url: str, referral_code: str) -> HtmlDocument:
        """An adult page whose links hijack the click (Section 5.2.2)."""
        words = self._sample_keywords(ADULT_KEYWORDS, 6)
        doc = HtmlDocument(title="Top adult videos and photos", lang="en")
        doc.meta["description"] = f"xxx {words[0]} images found for on"
        doc.headings = [" ".join(words[:3]).title()]
        doc.paragraphs = ["adult videos and photos"]
        target = f"{monetized_url}?ref={referral_code}" if referral_code else monetized_url
        for index in range(3):
            doc.links.append(
                Link(
                    href=f"/gallery-{index}",
                    text=f"{words[index % len(words)]} gallery {index}",
                    onclick=f"event.preventDefault();window.open('{target}');",
                )
            )
        doc.scripts.append(
            Script(body="document.addEventListener('click',function(e){/* intercept */});")
        )
        return doc

    def link_network_page(self, urls: Sequence[str], topic: Topic = Topic.GAMBLING) -> HtmlDocument:
        """A page that exists only to link other pages (link farming)."""
        pool = _TOPIC_POOLS[topic]
        doc = HtmlDocument(
            title=" ".join(self._sample_keywords(pool, 3)), lang=_TOPIC_LANG[topic]
        )
        doc.paragraphs = [" ".join(self._sample_keywords(pool, 6))]
        for url in urls:
            doc.links.append(Link(href=url, text=" ".join(self._sample_keywords(pool, 2))))
        return doc

    # -- bulk upload ------------------------------------------------------------------

    def random_page_name(self, topic: Topic) -> str:
        """The consistent random page naming of signature (4)."""
        pool = _TOPIC_POOLS[topic]
        words = [w for w in self._sample_keywords(pool, 3) if w.isascii()] or ["page"]
        slug = "-".join(w.replace(" ", "-") for w in words)
        return f"/{slug}-{self._rng.randrange(10_000)}.html"

    def abuse_sitemap(
        self,
        fqdn: str,
        page_paths: Sequence[str],
        total_page_count: int,
        at: Optional[datetime] = None,
        topic: Topic = Topic.GAMBLING,
    ) -> Sitemap:
        """A sitemap advertising ``total_page_count`` generated pages.

        Real entries are created for every counted page (the listed
        paths first, then more generated names), reproducing the
        multi-thousand-entry sitemaps behind Figure 6.
        """
        generated = max(0, total_page_count - len(page_paths))
        paths = chain(page_paths, (self.random_page_name(topic) for _ in range(generated)))
        sitemap = Sitemap()
        sitemap.extend((f"http://{fqdn}{path}" for path in paths), lastmod=at)
        return sitemap

    # -- helpers ------------------------------------------------------------------------

    def _identifier_link(self, identifier: str) -> Link:
        if identifier.startswith("+"):
            return Link(href=f"https://wa.me/{identifier}", text="WhatsApp 24 Jam")
        if identifier.startswith("http"):
            return Link(href=identifier, text="Link Alternatif")
        if _looks_like_ip(identifier):
            return Link(href=f"http://{identifier}/landing", text="Mirror")
        return Link(href=identifier, text="Contact")

    def _sample_keywords(self, pool: Sequence[str], count: int) -> List[str]:
        return [self._rng.choice(pool) for _ in range(count)]


def _looks_like_ip(value: str) -> bool:
    parts = value.split(".")
    return len(parts) == 4 and all(p.isdigit() and int(p) < 256 for p in parts)
