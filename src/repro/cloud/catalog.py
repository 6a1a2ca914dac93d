"""Assembly of the full multi-provider cloud layer."""

from __future__ import annotations

from datetime import timedelta
from typing import Dict, List, Optional, Tuple

from repro.cloud.provider import CloudProvider
from repro.cloud.specs import (
    CloudServiceSpec,
    DEFAULT_PROVIDER_CIDRS,
    DEFAULT_PROVIDER_COUNTRIES,
    DEFAULT_SERVICE_SPECS,
    cloud_suffixes,
)
from repro.dns.resolver import Resolver
from repro.dns.zone import ZoneRegistry
from repro.net.addresses import CidrSet, IPv4Pool
from repro.net.geoip import GeoIPDatabase
from repro.net.network import Network
from repro.sim.events import EventLog
from repro.sim.rng import RngStreams


class CloudCatalog:
    """All cloud providers plus the inputs Algorithm 1 consumes.

    ``suffixes`` and ``cloud_ips`` correspond to the paper's
    ``cloud_suffixes`` / ``cloud_IPs`` arguments: the published suffix
    list and the union of published provider IP ranges (Appendix A.1).
    """

    def __init__(
        self,
        providers: Dict[str, CloudProvider],
        suffixes: Tuple[str, ...],
        cloud_ips: CidrSet,
        geoip: GeoIPDatabase,
    ):
        self.providers = providers
        self.suffixes = suffixes
        self.cloud_ips = cloud_ips
        self.geoip = geoip

    def provider(self, name: str) -> CloudProvider:
        """Look up a provider by display name."""
        return self.providers[name]

    def attach_resolver(self, resolver: Resolver) -> None:
        """Wire custom-domain verification on every provider."""
        for provider in self.providers.values():
            provider.attach_resolver(resolver)


def build_catalog(
    zones: ZoneRegistry,
    network: Network,
    streams: RngStreams,
    events: Optional[EventLog] = None,
    specs: Tuple[CloudServiceSpec, ...] = DEFAULT_SERVICE_SPECS,
    edge_count: int = 4,
    edge_icmp_drop_rate: float = 0.28,
    reregistration_cooldown: timedelta = timedelta(0),
    randomize_names: bool = False,
    journal=None,
) -> CloudCatalog:
    """Stand up every provider with its pools, edges, zones and GeoIP.

    ``edge_icmp_drop_rate`` defaults to 0.28 so that roughly 72% of
    cloud-hosted domains answer ping, matching the paper's Section 2
    measurement.
    """
    by_provider: Dict[str, List[CloudServiceSpec]] = {}
    for spec in specs:
        by_provider.setdefault(spec.provider, []).append(spec)

    geoip = GeoIPDatabase()
    providers: Dict[str, CloudProvider] = {}
    all_cidrs: List[str] = []
    for provider_name, provider_specs in by_provider.items():
        cidrs = DEFAULT_PROVIDER_CIDRS.get(provider_name)
        if cidrs is None:
            raise ValueError(f"no published CIDRs for provider {provider_name!r}")
        pool = IPv4Pool(cidrs, reuse_bias=0.0)
        provider = CloudProvider(
            name=provider_name,
            specs=provider_specs,
            pool=pool,
            zones=zones,
            network=network,
            rng=streams.get(f"cloud:{provider_name}"),
            events=events,
            edge_count=edge_count,
            edge_icmp_drop_rate=edge_icmp_drop_rate,
            reregistration_cooldown=reregistration_cooldown,
            randomize_names=randomize_names,
            journal=journal,
        )
        providers[provider_name] = provider
        country = DEFAULT_PROVIDER_COUNTRIES.get(provider_name, "US")
        for cidr in cidrs:
            geoip.add(cidr, country, provider_name)
            all_cidrs.append(cidr)

    return CloudCatalog(
        providers=providers,
        suffixes=cloud_suffixes(specs),
        cloud_ips=CidrSet(all_cidrs),
        geoip=geoip,
    )
