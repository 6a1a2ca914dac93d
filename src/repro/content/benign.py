"""Benign content generation.

Produces the legitimate web the detector must *not* flag: corporate
and university pages, blogs, and the two benign-change patterns the
paper explicitly rules out (Section 3.2) — parked-domain pages whose
commercial content rotates collectively over time, and ordinary site
redesigns.
"""

from __future__ import annotations

import random
from typing import List

from repro.content.vocab import BENIGN_BUSINESS_WORDS
from repro.web.html import HtmlDocument, Link, Script


class BenignContentFactory:
    """Generates legitimate pages for organizations."""

    def __init__(self, rng: random.Random):
        self._rng = rng

    def corporate_index(self, org_name: str, sector: str, revision: int = 0) -> HtmlDocument:
        """A company homepage; ``revision`` varies wording (redesigns)."""
        words = self._sample_words(6 + revision % 3)
        doc = HtmlDocument(
            title=f"{org_name} — {words[0].title()} & {words[1].title()}",
            lang="en",
            meta={
                "description": f"{org_name} delivers {words[2]} and {words[3]} "
                f"for the {sector.lower()} sector.",
                "keywords": ", ".join(words[:5]),
            },
        )
        doc.headings = [f"Welcome to {org_name}"]
        doc.paragraphs = [
            f"{org_name} is a leader in {sector.lower()} {words[4]}.",
            f"Explore our {words[0]} and learn how our {words[1]} team "
            f"supports customers worldwide. Revision {revision}.",
        ]
        doc.links = [
            Link(href="/about", text="About us"),
            Link(href="/products", text=words[0].title()),
            Link(href="/careers", text="Careers"),
            Link(href="/contact", text="Contact"),
        ]
        return doc

    def university_index(self, org_name: str, revision: int = 0) -> HtmlDocument:
        """A university homepage."""
        doc = HtmlDocument(
            title=f"{org_name} | Education and Research",
            lang="en",
            meta={"description": f"Official site of {org_name}.",
                  "keywords": "university, research, students, admissions"},
        )
        doc.headings = [org_name]
        doc.paragraphs = [
            f"{org_name} advances research and education across disciplines.",
            f"Apply for the upcoming semester. Catalogue revision {revision}.",
        ]
        doc.links = [
            Link(href="/admissions", text="Admissions"),
            Link(href="/faculty", text="Faculty"),
            Link(href="/library", text="Library"),
        ]
        return doc

    def service_page(self, org_name: str, service: str) -> HtmlDocument:
        """An internal application/service page (the typical cloud asset)."""
        doc = HtmlDocument(
            title=f"{service.title()} — {org_name}",
            lang="en",
            meta={"description": f"{service} portal for {org_name}."},
        )
        doc.headings = [f"{org_name} {service}"]
        doc.paragraphs = [
            f"Sign in to access the {service} portal.",
            "For assistance contact your administrator.",
        ]
        doc.links = [Link(href="/login", text="Sign in")]
        doc.scripts = [Script(src="/static/app.js")]
        return doc

    def parked_page(self, domain: str, campaign: int) -> HtmlDocument:
        """A registrar parking page.

        Parking providers rotate ad content across *all* their parked
        domains at once — a same-change-many-domains pattern that the
        registrar-diversity analysis (Figure 10) must distinguish from
        abuse.  ``campaign`` selects the current rotation.
        """
        offers = ["insurance", "hosting", "travel deals", "credit cards", "broadband"]
        offer = offers[campaign % len(offers)]
        doc = HtmlDocument(
            title=f"{domain} — domain parked",
            lang="en",
            meta={"description": f"This domain is parked. Sponsored listings for {offer}."},
        )
        doc.paragraphs = [
            f"The domain {domain} is registered and parked.",
            f"Sponsored results: best {offer} offers.",
        ]
        doc.links = [Link(href=f"https://ads.parking-net.example/{offer}", text=offer.title())]
        return doc

    def _sample_words(self, count: int) -> List[str]:
        return self._rng.sample(list(BENIGN_BUSINESS_WORDS), count)
