"""The weekly evolution of the simulated world.

Drives the legitimate side of the three-year history the measurement
observes (Figure 1): organizations keep adding cloud assets (the
monitored set roughly doubles over the period), keep *releasing*
resources — usually purging the DNS record, sometimes forgetting
(creating dangling records) — and, once a dangling record has been
hijacked, eventually notice and remediate with the delay mixture the
paper measures in Section 4.4 (many fixes within 15 days, over a third
beyond 65 days, some beyond a year).  Benign churn (site redesigns,
parked-domain ad rotation) runs alongside so the detector has
legitimate changes to not flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Dict, List, Optional

from repro.dns.records import RRType
from repro.obs import OBS
from repro.pki.ca import IssuanceError
from repro.world.ground_truth import GroundTruthLog
from repro.world.internet import Internet
from repro.world.organizations import Asset, AssetKind, Organization
from repro.world.population import PopulationBuilder, PopulationConfig


@dataclass
class LifecycleConfig:
    """Weekly rates for world evolution."""

    #: Expected weekly asset growth as a fraction of the current estate.
    #: 0.0045/week compounds to roughly 2x over 156 weeks (Figure 1).
    weekly_growth_rate: float = 0.0045
    #: Weekly probability that an active cloud asset's resource is released.
    weekly_release_rate: float = 0.004
    #: Probability the owner purges the DNS record at release time.
    purge_on_release_rate: float = 0.70
    #: Weekly probability a (un-hijacked) dangling record gets purged anyway.
    spontaneous_purge_rate: float = 0.008
    #: Weekly probability an organization redesigns its pages.
    weekly_redesign_rate: float = 0.01
    #: How often parked-domain ad content rotates.
    parking_rotation_weeks: int = 8


#: Remediation-delay mixture, matching Figure 15: a large share fixed
#: within ~2 weeks, a middle band, and a negligent third beyond 65 days
#: with a tail past a year.
_REMEDIATION_BUCKETS = (
    (0.40, 2, 15),      # noticed fast
    (0.22, 16, 64),     # noticed eventually
    (0.28, 66, 360),    # negligent
    (0.10, 366, 800),   # effectively forgotten
)


class WorldEngine:
    """Applies one week of legitimate-world evolution at a time."""

    def __init__(
        self,
        internet: Internet,
        organizations: List[Organization],
        builder: PopulationBuilder,
        population_config: PopulationConfig,
        ground_truth: GroundTruthLog,
        config: Optional[LifecycleConfig] = None,
    ):
        self._internet = internet
        self.organizations = organizations
        self._builder = builder
        self._population_config = population_config
        self._ground_truth = ground_truth
        self.config = config or LifecycleConfig()
        self._rng: random.Random = internet.streams.get("lifecycle")
        self._orgs_by_key: Dict[str, Organization] = {
            org.key: org for org in organizations
        }
        self._parked: List[Organization] = [
            org for org in organizations if org.is_parked
        ]
        self._parking_campaign = 0
        self._weeks_run = 0
        for org in self._parked:
            self._render_parked(org)

    # -- main entry point -------------------------------------------------------

    def step(self, at: datetime) -> None:
        """Run one simulated week of legitimate-world activity."""
        self._grow(at)
        self._release_resources(at)
        self._purge_spontaneously(at)
        self._remediate_hijacks(at)
        self._benign_churn(at)
        self._feed_virustotal(at)
        self._weeks_run += 1

    # -- growth ---------------------------------------------------------------------

    def _grow(self, at: datetime) -> None:
        total_assets = sum(len(org.assets) for org in self.organizations)
        expected_new = total_assets * self.config.weekly_growth_rate
        new_count = int(expected_new)
        if self._rng.random() < (expected_new - new_count):
            new_count += 1
        for _ in range(new_count):
            org = self._rng.choice(self.organizations)
            self._builder.add_asset(org, self._population_config, at)

    # -- releases & dangling records ---------------------------------------------------

    def _release_resources(self, at: datetime) -> None:
        for org in self.organizations:
            for asset in org.assets:
                if asset.kind == AssetKind.SELF_HOSTED:
                    continue
                resource = asset.resource
                if resource is None or not resource.active:
                    continue
                if resource.owner != org.account:
                    continue  # currently hijacked; not the org's to release
                if self._rng.random() >= self.config.weekly_release_rate:
                    continue
                provider = self._internet.catalog.provider(resource.provider)
                provider.release(resource, at)
                if self._rng.random() < self.config.purge_on_release_rate:
                    self._purge_asset_record(org, asset, at)
                else:
                    asset.dangling_since = at
                    self._internet.revisions.publish(
                        at, "world.dangling", asset.fqdn,
                        org=org.key, service=asset.service_key,
                    )

    def _purge_spontaneously(self, at: datetime) -> None:
        for org in self.organizations:
            for asset in org.assets:
                if not asset.is_dangling:
                    continue
                if self._is_hijacked(asset):
                    continue
                if self._rng.random() < self.config.spontaneous_purge_rate:
                    self._purge_asset_record(org, asset, at)

    def _purge_asset_record(self, org: Organization, asset: Asset, at: datetime) -> None:
        zone = self._internet.zones.get_zone(org.domain)
        rtype = RRType.CNAME if asset.kind == AssetKind.CLOUD_CNAME else RRType.A
        zone.remove_all(asset.fqdn, rtype, at)
        asset.purged_at = at
        if asset.dangling_since is not None:
            self._internet.revisions.publish(
                at, "world.purged", asset.fqdn, org=org.key
            )

    # -- remediation of hijacks -----------------------------------------------------------

    def _remediate_hijacks(self, at: datetime) -> None:
        for record in self._ground_truth.active_records():
            asset = record.asset
            if asset.remediation_due is None:
                asset.remediation_due = record.taken_over_at + self._remediation_delay()
            if at >= asset.remediation_due:
                org = self._org_by_key(asset.org_key)
                if org is not None:
                    self._purge_asset_record(org, asset, at)
                self._ground_truth.mark_remediated(asset.fqdn, at)
                self._internet.revisions.publish(
                    at, "world.remediated", asset.fqdn, attacker=record.attacker_group
                )

    def _remediation_delay(self) -> timedelta:
        roll = self._rng.random()
        cumulative = 0.0
        for share, low, high in _REMEDIATION_BUCKETS:
            cumulative += share
            if roll < cumulative:
                return timedelta(days=self._rng.randrange(low, high + 1))
        return timedelta(days=_REMEDIATION_BUCKETS[-1][2])

    # -- benign churn ---------------------------------------------------------------------------

    def _benign_churn(self, at: datetime) -> None:
        for org in self.organizations:
            if org in self._parked:
                continue
            if self._rng.random() < self.config.weekly_redesign_rate:
                self._redesign(org)
        if self._weeks_run and self._weeks_run % 13 == 0:
            self._renew_managed_certificates(at)
        if (
            self.config.parking_rotation_weeks > 0
            and self._weeks_run % self.config.parking_rotation_weeks == 0
        ):
            self._parking_campaign += 1
            for org in self._parked:
                self._render_parked(org)

    def _redesign(self, org: Organization) -> None:
        org.page_revision += 1
        for asset in org.assets:
            resource = asset.resource
            if resource is None or not resource.active or resource.owner != org.account:
                continue
            doc = self._internet.benign_content.service_page(
                org.display_name, asset.fqdn.split(".")[0]
            )
            doc.paragraphs.append(f"Design revision {org.page_revision}.")
            resource.site.put_index(doc.render())

    def _renew_managed_certificates(self, at: datetime) -> None:
        """Quarterly renewal of managed multi-SAN/wildcard certificates.

        Keeps the legitimate issuance series of Figure 20 flowing over
        the whole measurement window, as ACME automation does.
        """
        whois = self._internet.whois
        for org in self.organizations:
            if not org.managed_cert_sans:
                continue
            ca = self._internet.cas[
                self._rng.choice(("Let's Encrypt", "DigiCert", "ZeroSSL"))
            ]
            try:
                ca.issue_dns_validated(
                    org.managed_cert_sans, whois.owner_of(org.domain),
                    whois.owner_of, at,
                )
            except IssuanceError:
                # A CAA record added since the original issuance can
                # refuse this CA at renewal time; that is world
                # behaviour, not a bug — anything else propagates.
                OBS.metrics.inc("pki.issuance_refused", path="renewal")

    def _render_parked(self, org: Organization) -> None:
        doc = self._internet.benign_content.parked_page(org.domain, self._parking_campaign)
        for asset in org.assets:
            resource = asset.resource
            if resource is not None and resource.active and resource.owner == org.account:
                resource.site.put_index(doc.render())

    # -- AV-vendor exposure ------------------------------------------------------------------------

    def _feed_virustotal(self, at: datetime) -> None:
        for record in self._ground_truth.active_records():
            self._internet.virustotal.observe_abuse(record.fqdn, at)

    # -- helpers ---------------------------------------------------------------------------------------

    def _is_hijacked(self, asset: Asset) -> bool:
        return any(r.active for r in self._ground_truth.records_for(asset.fqdn))

    def _org_by_key(self, key: str) -> Optional[Organization]:
        return self._orgs_by_key.get(key)
