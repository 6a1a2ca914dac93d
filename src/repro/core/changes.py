"""Change detection between consecutive snapshots (Section 3.2).

The paper compares weekly samples across several axes: DNS changes,
HTTP response changes, sitemap changes (appearance, or a ~100 KB size
jump), language changes and keyword changes.  A change on its own is
*not* abuse — most changes are legitimate — but changes gate which
snapshots enter signature extraction and matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.monitoring import SnapshotFeatures

#: Sitemap size jump treated as significant (the paper's 100 KB).
SITEMAP_JUMP_BYTES = 100 * 1024


@dataclass(frozen=True)
class ChangeEvent:
    """What changed between two consecutive states of one FQDN."""

    fqdn: str
    previous: Optional[SnapshotFeatures]
    current: SnapshotFeatures
    dns_changed: bool = False
    reactivated: bool = False
    went_dark: bool = False
    content_changed: bool = False
    language_changed: bool = False
    sitemap_appeared: bool = False
    sitemap_jumped: bool = False
    keywords_changed: bool = False
    first_observation: bool = False

    @property
    def any_change(self) -> bool:
        return any(
            (
                self.dns_changed, self.reactivated, self.went_dark,
                self.content_changed, self.language_changed,
                self.sitemap_appeared, self.sitemap_jumped,
                self.keywords_changed,
            )
        )


def detect_changes(
    previous: Optional[SnapshotFeatures], current: SnapshotFeatures
) -> ChangeEvent:
    """Compare two consecutive states of the same FQDN."""
    if previous is None:
        return ChangeEvent(
            fqdn=current.fqdn, previous=None, current=current,
            first_observation=True,
        )
    dns_changed = (
        previous.cname_chain != current.cname_chain
        or previous.addresses != current.addresses
        or previous.dns_status != current.dns_status
    )
    reactivated = (not previous.reachable) and current.reachable
    went_dark = previous.reachable and not current.reachable
    content_changed = (
        current.reachable
        and previous.html_hash != ""
        and current.html_hash != ""
        and previous.html_hash != current.html_hash
    )
    language_changed = (
        bool(previous.lang) and bool(current.lang) and previous.lang != current.lang
    )
    had_sitemap = previous.sitemap_count > 0
    has_sitemap = current.sitemap_count > 0
    sitemap_appeared = has_sitemap and not had_sitemap and current.reachable
    sitemap_jumped = (
        had_sitemap
        and has_sitemap
        and current.sitemap_size - previous.sitemap_size >= SITEMAP_JUMP_BYTES
    )
    keywords_changed = (
        current.reachable
        and bool(previous.keywords)
        and previous.keywords != current.keywords
    )
    return ChangeEvent(
        fqdn=current.fqdn,
        previous=previous,
        current=current,
        dns_changed=dns_changed,
        reactivated=reactivated,
        went_dark=went_dark,
        content_changed=content_changed,
        language_changed=language_changed,
        sitemap_appeared=sitemap_appeared,
        sitemap_jumped=sitemap_jumped,
        keywords_changed=keywords_changed,
    )
