"""The assembled simulated Internet.

:class:`Internet` wires every substrate together — DNS, network, cloud
catalog, PKI, WHOIS, threat intel — and offers the handful of
cross-cutting operations (certificate issuance for a resource, GeoIP
for attacker hosting ranges) that both legitimate owners and attackers
use.  One :class:`Internet` instance is one simulated world.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import Dict, Optional

from repro.cloud.catalog import CloudCatalog, build_catalog
from repro.cloud.resources import CloudResource
from repro.content.benign import BenignContentFactory
from repro.dns.passive_dns import PassiveDNS
from repro.dns.resolver import Resolver
from repro.dns.zone import ZoneRegistry
from repro.faults.retry import CircuitBreaker
from repro.intel.darknet import DarknetFeed
from repro.intel.shorteners import UrlShortener
from repro.intel.virustotal import VirusTotalService
from repro.net.network import Network
from repro.pki.ca import CertificateAuthority
from repro.pki.certificate import Certificate
from repro.pki.ct_log import CTLog
from repro.sim.clock import SimClock
from repro.sim.events import EventLog
from repro.sim.revisions import RevisionJournal
from repro.sim.rng import RngStreams
from repro.web.client import HttpClient
from repro.whois.registry import DomainRegistry

#: Hosting providers attackers rent infrastructure from, with country —
#: concentrated in the US, France and Singapore as in Figure 26.
ATTACKER_HOSTING_RANGES = (
    ("Quantum Hosting LLC", "US", "141.98.0.0/16"),
    ("RapidServe Inc", "US", "167.71.0.0/16"),
    ("OVH SAS", "FR", "51.38.0.0/16"),
    ("Scaleway", "FR", "163.172.0.0/16"),
    ("SG Digital Pte", "SG", "128.199.0.0/16"),
    ("Lion City Cloud", "SG", "159.89.0.0/16"),
    ("Hetzner Online", "DE", "88.198.0.0/16"),
    ("HostPalace", "NL", "185.56.0.0/16"),
)


class Internet:
    """All substrates of one simulated world, wired together."""

    def __init__(
        self,
        streams: RngStreams,
        clock: Optional[SimClock] = None,
        edge_icmp_drop_rate: float = 0.28,
        reregistration_cooldown: timedelta = timedelta(0),
        randomize_names: bool = False,
        fault_plan=None,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.streams = streams
        self.clock = clock if clock is not None else SimClock()
        self.events = EventLog()
        #: World-wide revision journal: every mutation path (DNS, net
        #: bindings, edge routing, site content, cloud lifecycle)
        #: publishes through it, giving ledger sweeps one place to
        #: ask "what changed since my last pass?".
        self.revisions = RevisionJournal(self.events)
        #: The shared fault-injection plan (``None`` = fully healthy
        #: Internet — byte-identical to the pre-faults behaviour).
        self.faults = fault_plan
        self.zones = ZoneRegistry(journal=self.revisions)
        self.network = Network(fault_plan=fault_plan, journal=self.revisions)
        self.passive_dns = PassiveDNS()
        self.resolver = Resolver(self.zones, self.passive_dns, fault_plan=fault_plan)
        self.catalog: CloudCatalog = build_catalog(
            self.zones,
            self.network,
            streams,
            events=self.events,
            edge_icmp_drop_rate=edge_icmp_drop_rate,
            reregistration_cooldown=reregistration_cooldown,
            randomize_names=randomize_names,
            journal=self.revisions,
        )
        self.catalog.attach_resolver(self.resolver)
        if fault_plan is not None:
            # Edge-side HTTP faults: every provider edge (and every
            # dedicated server provisioned later) shares the plan.
            for provider in self.catalog.providers.values():
                provider.fault_plan = fault_plan
                for edge in provider.edges:
                    edge.fault_plan = fault_plan
        if breaker is None and fault_plan is not None:
            breaker = CircuitBreaker()
        self.client = HttpClient(
            self.resolver, self.network, fault_plan=fault_plan, breaker=breaker
        )
        self.whois = DomainRegistry()
        self.ct_log = CTLog()
        self.cas: Dict[str, CertificateAuthority] = {}
        self._build_cas()
        self.virustotal = VirusTotalService(streams.get("virustotal"))
        self.darknet = DarknetFeed()
        self.shortener = UrlShortener(streams.get("shortener"))
        self.benign_content = BenignContentFactory(streams.get("benign-content"))
        self.geoip = self.catalog.geoip
        for organization, country, cidr in ATTACKER_HOSTING_RANGES:
            self.geoip.add(cidr, country, organization)

    def _build_cas(self) -> None:
        definitions = (
            ("Let's Encrypt", "letsencrypt.org", True, 0.0),
            ("ZeroSSL", "zerossl.com", True, 0.0),
            ("Microsoft Azure TLS", "microsoft.com", True, 0.0),
            ("Amazon", "amazon.com", True, 0.0),
            ("DigiCert", "digicert.com", False, 199.0),
        )
        for name, identifier, free, price in definitions:
            self.cas[name] = CertificateAuthority(
                name=name,
                identifier=identifier,
                ct_log=self.ct_log,
                zones=self.zones,
                client=self.client,
                rng=self.streams.get(f"ca:{identifier}"),
                free=free,
                price_usd=price,
            )

    # -- cross-cutting operations ------------------------------------------------

    def issue_certificate(
        self,
        resource: CloudResource,
        hostname: str,
        at: datetime,
        ca_name: str = "Let's Encrypt",
    ) -> Certificate:
        """Obtain and install a domain-validated cert for ``hostname``.

        Works for whoever currently controls the resource — the owner
        or a hijacker (Section 5.6's point).  Raises
        :class:`repro.pki.ca.IssuanceError` on validation/CAA failure.
        """
        ca = self.cas[ca_name]
        provider = self.catalog.provider(resource.provider)
        installer = provider.challenge_installer(resource)
        certificate = ca.issue([hostname], installer, at)
        provider.install_certificate(resource, hostname, certificate)
        self.revisions.publish(
            at, "pki.issued", hostname,
            issuer=ca_name, owner=resource.owner, serial=certificate.serial,
        )
        return certificate
