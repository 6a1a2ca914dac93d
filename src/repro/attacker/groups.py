"""Attacker groups and their behaviour profiles.

Section 6 finds ~1,800 infrastructures, mostly tiny, plus one giant
coordinated component (1,609 identifiers, 743 domains) — all pushing
Indonesian gambling.  The default group roster reproduces that shape:
one large syndicate whose member cells share monetization targets and
some identifiers, a handful of mid-size independent groups, and a tail
of small operators with disjoint identifiers.  Activity windows follow
Figure 16: a first wave in 2020, a lull in early 2021, then a sustained
ramp through 2021-2023.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import List, Optional, Tuple

from repro.attacker.content import AbuseContentFactory
from repro.attacker.identifiers import IdentifierPool, build_pool
from repro.content.vocab import ABUSE_TOPIC_WEIGHTS, Topic
from repro.intel.shorteners import UrlShortener
from repro.sim.clock import DEFAULT_START
from repro.sim.rng import RngStreams


@dataclass
class GroupBehavior:
    """Tunable behaviour of one group."""

    #: Takeovers attempted per active week.
    weekly_capacity: int = 2
    #: Probability a hijack gets a fraudulent single-SAN certificate.
    certificate_rate: float = 0.15
    #: Probability a hijacked site hosts a downloadable APK/EXE.
    malware_rate: float = 0.08
    #: Probability the binary is an actual trojan (most are gambling apps).
    trojan_rate: float = 0.05
    #: Whether the group harvests and sells cookies.
    steals_cookies: bool = False
    #: Probability of the clickjacking variant on adult pages.
    clickjacking_rate: float = 0.5
    #: Share of hijacks that keep the maintenance facade as index.
    facade_rate: float = 0.5
    #: Meta-keyword stuffing share per generated page; facades and
    #: clickjacking pages carry none, so the measured per-page rate
    #: lands near the paper's 41%.
    keyword_stuffing_rate: float = 0.55
    #: WordPress-generator share of index pages (the paper measures ~22%).
    wordpress_rate: float = 0.22
    #: log-mean/log-sigma of pages uploaded per hijacked site (Figure 6).
    pages_lognormal_mu: float = 6.2
    pages_lognormal_sigma: float = 1.1
    #: Hard cap on sitemap entries per site (simulation scale guard).
    max_pages_per_site: int = 20_000
    #: How many real HTML pages to actually store per site.
    stored_page_cap: int = 12


@dataclass
class AttackerGroup:
    """One attacking operation."""

    name: str
    rng: random.Random
    identifier_pool: IdentifierPool
    monetized_urls: List[str]
    referral_code: str
    behavior: GroupBehavior = field(default_factory=GroupBehavior)
    #: "referral": click-through links carrying a referral code to the
    #: paymaster; "ads": monetized by ads on the pages themselves
    #: (Section 5.2's two income sources).
    monetization: str = "referral"
    #: Activity window (inclusive start, exclusive end).
    active_from: datetime = DEFAULT_START
    active_until: Optional[datetime] = None
    #: Topic mix; defaults to the global Figure 3 mix.
    topic_weights: Tuple[Tuple[Topic, float], ...] = ABUSE_TOPIC_WEIGHTS

    def __post_init__(self) -> None:
        self.content = AbuseContentFactory(self.rng, self.name)

    @property
    def account(self) -> str:
        """The cloud account this group registers resources under."""
        return f"attacker:{self.name}"

    def is_active(self, at: datetime) -> bool:
        if at < self.active_from:
            return False
        if self.active_until is not None and at >= self.active_until:
            return False
        return True

    def pick_topic(self) -> Topic:
        topics = [topic for topic, _ in self.topic_weights]
        weights = [weight for _, weight in self.topic_weights]
        return self.rng.choices(topics, weights=weights, k=1)[0]

    def sample_page_count(self) -> int:
        """Pages uploaded to one hijacked site (heavy-tailed, Figure 6)."""
        count = int(self.rng.lognormvariate(
            self.behavior.pages_lognormal_mu, self.behavior.pages_lognormal_sigma
        ))
        return max(2, min(count, self.behavior.max_pages_per_site))


def make_default_groups(
    streams: RngStreams,
    shortener: UrlShortener,
    count: int = 14,
    syndicate_cells: int = 4,
) -> List[AttackerGroup]:
    """Build the default roster.

    The first ``syndicate_cells`` groups form the coordinated syndicate:
    they share monetization targets and a block of common identifiers,
    so their infrastructures merge into one giant cluster, as in the
    paper's largest grouping.  Remaining groups are independent.
    """
    roster_rng = streams.get("attacker:roster")
    groups: List[AttackerGroup] = []

    syndicate_urls = [
        "https://mega-gacor.bet/play",
        "https://rajaslot-online.win/lobby",
    ]
    shared_pool = build_pool(
        streams.get("attacker:syndicate-shared"), shortener, syndicate_urls,
        phone_count=4, social_count=5, short_link_count=5, backend_ip_count=4,
    )

    for index in range(count):
        name = f"group-{index:02d}"
        rng = streams.get(f"attacker:{name}")
        is_syndicate = index < syndicate_cells
        if is_syndicate:
            monetized = list(syndicate_urls)
            pool = build_pool(rng, shortener, monetized, phone_count=2,
                              social_count=3, short_link_count=3, backend_ip_count=2)
            # Shared syndicate identifiers glue the cells together.
            pool.phones += shared_pool.phones
            pool.social_handles += shared_pool.social_handles
            pool.short_links += shared_pool.short_links
            pool.backend_ips += shared_pool.backend_ips
            behavior = GroupBehavior(weekly_capacity=3, certificate_rate=0.22,
                                     steals_cookies=index == 0)
        else:
            monetized = [f"https://{name}-depo.win/register"]
            pool = build_pool(rng, shortener, monetized)
            behavior = GroupBehavior(
                weekly_capacity=1 + roster_rng.randrange(2),
                certificate_rate=0.10 + roster_rng.random() * 0.15,
                steals_cookies=roster_rng.random() < 0.15,
            )
        start, end = _activity_window(index, count, roster_rng)
        monetization = "referral" if (is_syndicate or index % 3 != 2) else "ads"
        groups.append(
            AttackerGroup(
                name=name,
                rng=rng,
                identifier_pool=pool,
                monetized_urls=monetized,
                referral_code=f"ref{1000 + index * 37}" if monetization == "referral" else "",
                behavior=behavior,
                monetization=monetization,
                active_from=start,
                active_until=end,
            )
        )
    return groups


def _activity_window(
    index: int, count: int, rng: random.Random
) -> Tuple[datetime, Optional[datetime]]:
    """Figure 16's shape: a 2020 wave, a 2021 lull, then a ramp."""
    if index % 3 == 0:
        # Early wave: active through 2020, gone by early 2021.
        start = DEFAULT_START + timedelta(weeks=rng.randrange(0, 16))
        end = datetime(2021, 1, 1) + timedelta(weeks=rng.randrange(0, 10))
        if index == 0:
            # The syndicate's anchor cell returns for the ramp as well.
            end = None
        return start, end
    # Ramp: start somewhere from late 2021 onwards, stay active.
    start = datetime(2021, 8, 1) + timedelta(weeks=rng.randrange(0, 52))
    return start, None
