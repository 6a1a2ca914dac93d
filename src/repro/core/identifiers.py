"""Identifier extraction from abuse pages (Section 6).

Parses the stored abusive snapshots for the four identifier families
the paper extracts from ``href`` attributes and script sources: phone
numbers (WhatsApp ``wa.me`` links — Figure 21 geolocates them by
country code), chat/social contacts, URL-shortener links, and literal
backend IP addresses (Figure 26 maps them to hosting orgs/countries).
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.attacker.identifiers import phone_country
from repro.core.detection import AbuseDataset
from repro.core.monitoring import SnapshotStore
from repro.dns.names import Name
from repro.intel.shorteners import SHORTENER_DOMAINS
from repro.net.geoip import GeoIPDatabase

_WA_RE = re.compile(r"https?://wa\.me/(\+\d{6,16})")
_SOCIAL_RE = re.compile(
    r"https?://(?:www\.)?(t\.me|instagram\.com|facebook\.com|twitter\.com)/([A-Za-z0-9_.-]+)"
)
_IP_URL_RE = re.compile(r"https?://(\d{1,3}(?:\.\d{1,3}){3})(?::\d+)?(?:/|$)")


@dataclass
class IdentifierMap:
    """identifier -> set of hijacked FQDNs it appeared on."""

    phones: Dict[str, Set[Name]] = field(default_factory=lambda: defaultdict(set))
    socials: Dict[str, Set[Name]] = field(default_factory=lambda: defaultdict(set))
    short_links: Dict[str, Set[Name]] = field(default_factory=lambda: defaultdict(set))
    ips: Dict[str, Set[Name]] = field(default_factory=lambda: defaultdict(set))

    def all_identifiers(self) -> Dict[str, Set[Name]]:
        merged: Dict[str, Set[Name]] = {}
        for bucket in (self.phones, self.socials, self.short_links, self.ips):
            merged.update(bucket)
        return merged

    def kind_of(self, identifier: str) -> str:
        if identifier in self.phones:
            return "phone"
        if identifier in self.socials:
            return "social"
        if identifier in self.short_links:
            return "short-link"
        if identifier in self.ips:
            return "ip"
        raise KeyError(identifier)

    @property
    def unique_counts(self) -> Dict[str, int]:
        return {
            "phones": len(self.phones),
            "socials": len(self.socials),
            "short_links": len(self.short_links),
            "ips": len(self.ips),
        }


def extract_identifiers(dataset: AbuseDataset, store: SnapshotStore) -> IdentifierMap:
    """Scan abusive snapshots of every abused FQDN for identifiers."""
    identifier_map = IdentifierMap()
    shortener_hosts = set(SHORTENER_DOMAINS)
    for record in dataset.records():
        for state in store.history(record.fqdn):
            features = state.features
            if not features.reachable:
                continue
            in_episode = any(
                e.started_at <= state.first_seen
                and (e.ended_at is None or state.first_seen < e.ended_at)
                for e in record.episodes
            )
            if not in_episode:
                continue
            urls = list(features.external_urls) + list(features.script_srcs)
            for url in urls:
                _classify_url(url, record.fqdn, identifier_map, shortener_hosts)
    return identifier_map


def _classify_url(
    url: str, fqdn: Name, identifier_map: IdentifierMap, shortener_hosts: Set[str]
) -> None:
    wa = _WA_RE.match(url)
    if wa:
        identifier_map.phones[wa.group(1)].add(fqdn)
        return
    social = _SOCIAL_RE.match(url)
    if social:
        identifier_map.socials[f"{social.group(1)}/{social.group(2)}"].add(fqdn)
        return
    ip = _IP_URL_RE.match(url)
    if ip:
        identifier_map.ips[ip.group(1)].add(fqdn)
        return
    host = url.split("//", 1)[-1].split("/", 1)[0].lower()
    if host in shortener_hosts:
        identifier_map.short_links[url].add(fqdn)


# -- geographic breakdowns (Figures 21 and 26) -------------------------------------


def phone_geo_distribution(identifier_map: IdentifierMap) -> List[Tuple[str, int]]:
    """Figure 21: unique phone numbers by country of their calling code."""
    counter: Counter = Counter()
    for phone in identifier_map.phones:
        counter[phone_country(phone)] += 1
    return counter.most_common()


def ip_organizations(
    identifier_map: IdentifierMap, geoip: GeoIPDatabase
) -> List[Tuple[str, int]]:
    """Figure 26a: hosting organizations behind referenced IPs."""
    counter: Counter = Counter()
    for ip in identifier_map.ips:
        organization = geoip.organization_of(ip) or "(unknown)"
        counter[organization] += 1
    return counter.most_common()


def ip_countries(
    identifier_map: IdentifierMap, geoip: GeoIPDatabase
) -> List[Tuple[str, int]]:
    """Figure 26b: countries the referenced IPs geolocate to."""
    counter: Counter = Counter()
    for ip in identifier_map.ips:
        counter[geoip.country_of(ip) or "??"] += 1
    return counter.most_common()
