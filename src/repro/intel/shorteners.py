"""URL-shortener services.

Abuse pages link through shorteners to the monetized targets; the
paper extracts 2,671 unique shortener links as attacker identifiers
(Section 6).  The simulated service issues deterministic short links
per campaign so that shared infrastructure shows up as shared
identifiers in the clustering.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

SHORTENER_DOMAINS: Tuple[str, ...] = ("sh.rt", "lnk.wtf", "go2.bet", "tiny.gg")

_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


class UrlShortener:
    """A family of shortener domains with an expandable mapping."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._forward: Dict[str, str] = {}
        self._reverse: Dict[str, str] = {}

    def shorten(self, target_url: str) -> str:
        """Return a short URL for ``target_url`` (stable per target)."""
        if target_url in self._reverse:
            return self._reverse[target_url]
        domain = self._rng.choice(SHORTENER_DOMAINS)
        while True:
            slug = "".join(self._rng.choice(_ALPHABET) for _ in range(7))
            short = f"https://{domain}/{slug}"
            if short not in self._forward:
                break
        self._forward[short] = target_url
        self._reverse[target_url] = short
        return short

    def expand(self, short_url: str) -> str:
        """Resolve a short URL; unknown links raise ``KeyError``."""
        return self._forward[short_url]

    def __len__(self) -> int:
        return len(self._forward)
