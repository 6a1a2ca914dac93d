"""Stolen-cookie correlation (Section 5.5).

Server-side cookie exfiltration leaves no client-visible trace, so the
paper searched darknet leak feeds for authentication cookies that
surfaced *during* the window in which the corresponding domain was
hijacked (83 cookies across 3 subdomains from 53 victim IPs).  This
module runs the same join between the darknet feed and the abuse
dataset's episode windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.core.detection import AbuseDataset
from repro.intel.darknet import CookieLeak, DarknetFeed


@dataclass
class CookieTheftReport:
    """Leaked authentication cookies matched to hijack windows."""

    matched_leaks: List[CookieLeak]
    unique_cookies: int
    affected_subdomains: Set[str]
    victim_ips: Set[str]

    @property
    def total(self) -> int:
        return len(self.matched_leaks)


def correlate_cookie_leaks(
    dataset: AbuseDataset, darknet: DarknetFeed
) -> CookieTheftReport:
    """Match darknet authentication-cookie leaks to abuse episodes.

    A leak counts only if its domain is in the abuse dataset and the
    leak timestamp falls inside one of the domain's abuse episodes —
    the paper's "in the timeframe in which the corresponding dangling
    domains were detected by us as hijacked".
    """
    matched: List[CookieLeak] = []
    cookies: Set[str] = set()
    subdomains: Set[str] = set()
    ips: Set[str] = set()
    for leak in darknet.all_leaks():
        if not leak.cookie.is_authentication:
            continue
        record = dataset.get(leak.domain)
        if record is None:
            continue
        in_window = any(
            episode.started_at <= leak.leaked_at
            and (episode.ended_at is None or leak.leaked_at <= episode.ended_at)
            for episode in record.episodes
        )
        if not in_window:
            continue
        matched.append(leak)
        cookies.add(f"{leak.cookie.domain}:{leak.cookie.name}:{leak.cookie.value}")
        subdomains.add(leak.domain)
        ips.add(leak.victim_ip)
    return CookieTheftReport(
        matched_leaks=matched,
        unique_cookies=len(cookies),
        affected_subdomains=subdomains,
        victim_ips=ips,
    )
