"""Campaign orchestration: from recon to monetized abuse.

Each simulated week, every active attacker group scans for dangling
records (via :class:`~repro.attacker.scanner.DanglingScanner`), takes
over the highest-reputation candidates up to its capacity, aliases the
victim FQDNs onto the re-registered resource, and deploys its abuse
kit: SEO doorway pages with stuffed keywords and referral links, a
multi-thousand-entry sitemap, optionally a fraudulent single-SAN
certificate, occasionally a hosted APK/EXE, and — for cookie-stealing
groups — an instrumented site that harvests visitor cookies, which are
then posted to the darknet feed.
"""

from __future__ import annotations

import hashlib
from datetime import datetime
from typing import Dict, List, Tuple

from repro.attacker.groups import AttackerGroup
from repro.attacker.scanner import DanglingScanner, TakeoverCandidate
from repro.attacker.cloaking import CloakingSite
from repro.attacker.stealing import CookieStealingSite
from repro.cloud.provider import CustomDomainError, ProvisioningError
from repro.cloud.resources import CloudResource
from repro.content.vocab import Topic
from repro.intel.darknet import CookieLeak
from repro.pki.ca import IssuanceError
from repro.web.html import HtmlDocument, Link
from repro.world.ground_truth import GroundTruthLog
from repro.world.internet import Internet
from repro.world.organizations import Asset, Organization


class CampaignOrchestrator:
    """Runs every attacker group, one week at a time."""

    def __init__(
        self,
        internet: Internet,
        groups: List[AttackerGroup],
        ground_truth: GroundTruthLog,
        organizations: List[Organization],
    ):
        self._internet = internet
        self.groups = groups
        self._ground_truth = ground_truth
        self._organizations = organizations
        self._scanner = DanglingScanner(internet)
        self._shuffle_rng = internet.streams.get("campaign:scheduling")
        self._stealing_sites: List[Tuple[AttackerGroup, CookieStealingSite]] = []
        self._binary_serial = 0

    # -- weekly driver ------------------------------------------------------------

    def step(self, at: datetime) -> int:
        """One week of attacking; returns the number of new takeovers."""
        active = [g for g in self.groups if g.is_active(at)]
        if not active:
            self._drain_cookies(at)
            return 0
        candidates = self._scanner.find_candidates(at)
        assets = self._assets_by_fqdn()
        takeovers = 0
        cursor = 0
        # Groups compete for the same public pool of dangling records;
        # interleave one takeover per group per round (shuffled weekly)
        # so no single group monopolizes the feed.
        remaining = {group.name: group.behavior.weekly_capacity for group in active}
        order = list(active)
        self._shuffle_rng.shuffle(order)
        while cursor < len(candidates) and any(remaining.values()):
            for group in order:
                if remaining[group.name] <= 0:
                    continue
                if cursor >= len(candidates):
                    break
                candidate = candidates[cursor]
                cursor += 1
                remaining[group.name] -= 1
                if self._execute_takeover(group, candidate, assets, at):
                    takeovers += 1
        self._drain_cookies(at)
        return takeovers

    # -- takeover execution ----------------------------------------------------------

    def _execute_takeover(
        self,
        group: AttackerGroup,
        candidate: TakeoverCandidate,
        assets: Dict[str, Asset],
        at: datetime,
    ) -> bool:
        provider = self._internet.catalog.provider(candidate.provider)
        try:
            resource = provider.provision(
                candidate.service_key,
                candidate.resource_name,
                owner=group.account,
                at=at,
                region=candidate.region,
            )
        except ProvisioningError:
            return False

        if group.behavior.steals_cookies:
            site = CookieStealingSite(resource.access)
            provider.replace_site(resource, site)
            self._stealing_sites.append((group, site))

        victims: List[str] = []
        for fqdn in candidate.victim_fqdns:
            try:
                provider.add_custom_domain(resource, fqdn, at)
                victims.append(fqdn)
            except CustomDomainError:
                continue
        primary = victims[0] if victims else resource.generated_fqdn
        self._deploy_content(group, resource, primary, at)

        for fqdn in victims:
            asset = assets.get(fqdn)
            if asset is not None:
                self._ground_truth.record_takeover(asset, group.name, resource, at)
        self._internet.revisions.publish(
            at, "attacker.takeover", primary,
            group=group.name, service=candidate.service_key,
            victims=list(victims),
        )
        if victims and group.rng.random() < group.behavior.certificate_rate:
            self._issue_fraudulent_certificate(group, resource, victims[0], at)
        return True

    def _deploy_content(
        self, group: AttackerGroup, resource: CloudResource, primary: str, at: datetime
    ) -> None:
        behavior = group.behavior
        topic = group.pick_topic()
        if topic == Topic.ADULT and group.rng.random() < behavior.clickjacking_rate:
            # Pure clickjacking deployments monetize clicks directly and
            # skip the SEO page network (Section 5.2.2) — part of the
            # non-SEO quarter of observed abuse.
            index_doc = group.content.clickjacking_page(
                group.monetized_urls[0], group.referral_code
            )
            resource.site.put_index(index_doc.render())
            return
        if topic == Topic.JAPANESE_SEO and not isinstance(resource.site, CookieStealingSite):
            # The Japanese Keyword Hack cloaks: spam pages are served to
            # crawlers only (Section 5.2.1).
            provider = self._internet.catalog.provider(resource.provider)
            provider.replace_site(resource, CloakingSite())
        total_pages = group.sample_page_count()
        stored = min(behavior.stored_page_cap, total_pages)
        paths: List[str] = []
        while len(paths) < stored:
            path = group.content.random_page_name(topic)
            if path not in paths:
                paths.append(path)
        sibling_urls = [f"http://{primary}{p}" for p in paths]

        for index, path in enumerate(paths):
            doc = self._build_page(group, topic, sibling_urls, index)
            resource.site.put(path, doc.render())

        index_doc = self._build_index(group, topic, sibling_urls)
        if group.rng.random() < behavior.malware_rate:
            self._host_binary(group, resource, index_doc, topic)
        resource.site.put_index(index_doc.render())

        sitemap = group.content.abuse_sitemap(primary, paths, total_pages, at, topic)
        resource.site.put_sitemap(sitemap)
        if topic == Topic.JAPANESE_SEO:
            resource.site.put(
                "/robots.txt",
                f"User-agent: *\nAllow: /\nSitemap: http://{primary}/sitemap.xml\n",
                content_type="text/plain",
            )

    def _build_page(
        self, group: AttackerGroup, topic: Topic, sibling_urls: List[str], index: int
    ) -> HtmlDocument:
        identifiers = group.identifier_pool.sample(group.rng, 2 + group.rng.randrange(3))
        siblings = sibling_urls[max(0, index - 3): index] + sibling_urls[index + 1: index + 4]
        if topic == Topic.JAPANESE_SEO:
            return group.content.japanese_page(siblings)
        if topic == Topic.ADULT and group.rng.random() < group.behavior.clickjacking_rate:
            return group.content.clickjacking_page(
                group.monetized_urls[0], group.referral_code
            )
        if group.rng.random() < 0.1:
            return group.content.link_network_page(siblings, topic)
        return group.content.doorway_page(
            topic,
            group.rng.choice(group.monetized_urls),
            group.referral_code,
            identifiers,
            siblings,
            stuff_meta_keywords=group.rng.random() < group.behavior.keyword_stuffing_rate,
            wordpress_generator=group.rng.random() < group.behavior.wordpress_rate,
        )

    def _build_index(
        self, group: AttackerGroup, topic: Topic, sibling_urls: List[str]
    ) -> HtmlDocument:
        if group.rng.random() < group.behavior.facade_rate:
            doc = group.content.maintenance_facade()
            # The facade still links into the hidden page network so
            # crawlers find it.
            for url in sibling_urls[:3]:
                doc.links.append(Link(href=url, text="more"))
            return doc
        identifiers = group.identifier_pool.sample(group.rng, 3 + group.rng.randrange(3))
        return group.content.doorway_page(
            topic,
            group.monetized_urls[0],
            group.referral_code,
            identifiers,
            sibling_urls[:6],
            stuff_meta_keywords=group.rng.random() < group.behavior.keyword_stuffing_rate,
            wordpress_generator=group.rng.random() < group.behavior.wordpress_rate,
        )

    # -- side channels ---------------------------------------------------------------------

    def _host_binary(
        self,
        group: AttackerGroup,
        resource: CloudResource,
        index_doc: HtmlDocument,
        topic: Topic,
    ) -> None:
        """Host a downloadable executable and link it from the index.

        Almost all are gambling APKs; a rare few are actual trojans
        (the paper found 181 APKs and one EXE, with only two trojan
        verdicts).
        """
        self._binary_serial += 1
        is_trojan = group.rng.random() < group.behavior.trojan_rate
        if group.rng.random() < 0.93:
            filename, magic, platform = f"slot{self._binary_serial}.apk", "PK", "android"
            family = "GamblingApp"
        else:
            filename, magic, platform = f"installer{self._binary_serial}.exe", "MZ", "windows"
            family = "SpyLoader"
        digest = hashlib.sha256(
            f"{group.name}:{filename}:{self._binary_serial}".encode()
        ).hexdigest()
        body = f"{magic}|platform={platform}|trojan={int(is_trojan)}|family={family}|sha256={digest}"
        path = f"/download/{filename}"
        resource.site.put(path, body, content_type="application/octet-stream")
        index_doc.links.append(Link(href=path, text="Download App"))

    def _issue_fraudulent_certificate(
        self, group: AttackerGroup, resource: CloudResource, fqdn: str, at: datetime
    ) -> None:
        roll = group.rng.random()
        if roll < 0.80:
            ca_name = "Let's Encrypt"
        elif roll < 0.95:
            ca_name = "ZeroSSL"
        else:
            ca_name = "Microsoft Azure TLS" if resource.provider == "Azure" else "Amazon"
        try:
            self._internet.issue_certificate(resource, fqdn, at, ca_name=ca_name)
        except IssuanceError:
            pass  # CAA or validation stopped this one

    def _drain_cookies(self, at: datetime) -> None:
        for group, site in self._stealing_sites:
            for captured in site.drain():
                if not captured.cookie.is_authentication:
                    continue
                self._internet.darknet.post(
                    CookieLeak(
                        cookie=captured.cookie,
                        domain=captured.host,
                        victim_ip=captured.client_ip,
                        leaked_at=at,
                    )
                )

    # -- helpers -------------------------------------------------------------------------------

    def _assets_by_fqdn(self) -> Dict[str, Asset]:
        index: Dict[str, Asset] = {}
        for org in self._organizations:
            for asset in org.assets:
                index[asset.fqdn] = asset
        return index
