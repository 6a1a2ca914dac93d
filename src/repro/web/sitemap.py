"""Sitemap modelling.

Sitemap features are one of the paper's strongest abuse signals
(Section 3.2): attackers upload tens of thousands of similarly named
pages per site (Figure 6), producing multi-megabyte sitemaps, and a
new sitemap or a 100 KB size jump is itself a signature component.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class SitemapEntry:
    """One ``<url>`` element."""

    loc: str
    lastmod: Optional[str] = None


@dataclass
class Sitemap:
    """An XML sitemap as a list of entries."""

    entries: List[SitemapEntry] = field(default_factory=list)

    def add(self, loc: str, lastmod: Optional[datetime] = None) -> SitemapEntry:
        """Append an entry and return it."""
        entry = SitemapEntry(loc=loc, lastmod=_day(lastmod))
        self.entries.append(entry)
        return entry

    def extend(self, locs: Iterable[str], lastmod: Optional[datetime] = None) -> None:
        """Append one entry per location, all with the same ``lastmod``.

        Bulk uploads stamp thousands of pages with one day, so the day
        is formatted once.
        """
        day = _day(lastmod)
        self.entries.extend(SitemapEntry(loc=loc, lastmod=day) for loc in locs)

    def __len__(self) -> int:
        return len(self.entries)

    def urls(self) -> List[str]:
        """All entry locations."""
        return [entry.loc for entry in self.entries]

    def render(self) -> str:
        """Serialize to sitemap XML."""
        lines = ['<?xml version="1.0" encoding="UTF-8"?>']
        lines.append('<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">')
        for entry in self.entries:
            lines.append("  <url>")
            lines.append(f"    <loc>{entry.loc}</loc>")
            if entry.lastmod:
                lines.append(f"    <lastmod>{entry.lastmod}</lastmod>")
            lines.append("  </url>")
        lines.append("</urlset>")
        return "\n".join(lines)

    def size_bytes(self) -> int:
        """Rendered size in bytes — the 100 KB-jump signal's unit."""
        return len(self.render().encode("utf-8"))


def _day(at: Optional[datetime]) -> Optional[str]:
    return at.strftime("%Y-%m-%d") if at else None


_URL_RE = re.compile(r"<url>(.*?)</url>", re.S)
_LOC_RE = re.compile(r"<loc>(.*?)</loc>", re.S)
_LASTMOD_RE = re.compile(r"<lastmod>(.*?)</lastmod>", re.S)


def _located_blocks(text: str) -> Iterator[Tuple[str, re.Match]]:
    """Each ``<url>`` block that holds a ``<loc>``, with that match.

    The one reading of sitemap XML: :func:`parse_sitemap` and
    :func:`sitemap_summary` both walk it, so they cannot disagree on
    which blocks count.
    """
    for block in _URL_RE.findall(text):
        loc_match = _LOC_RE.search(block)
        if loc_match:
            yield block, loc_match


def parse_sitemap(text: str) -> Sitemap:
    """Parse sitemap XML into a :class:`Sitemap` (tolerant)."""
    sitemap = Sitemap()
    for block, loc_match in _located_blocks(text):
        lastmod_match = _LASTMOD_RE.search(block)
        sitemap.entries.append(
            SitemapEntry(
                loc=loc_match.group(1).strip(),
                lastmod=lastmod_match.group(1).strip() if lastmod_match else None,
            )
        )
    return sitemap


def sitemap_summary(text: str, sample_cap: int) -> Tuple[int, Tuple[str, ...]]:
    """``(entry count, first sample_cap locs)`` as :func:`parse_sitemap` sees them.

    One pass that builds no entries: the monitor needs only these two
    fields of sitemaps that run to tens of thousands of pages.
    """
    count = 0
    sample: List[str] = []
    for _, loc_match in _located_blocks(text):
        if count < sample_cap:
            sample.append(loc_match.group(1).strip())
        count += 1
    return count, tuple(sample)
