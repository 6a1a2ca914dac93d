"""Cloud providers: provisioning, release, re-registration, aliasing.

This module implements the mechanics that create and enable the hijacks:

* provisioning a freetext resource publishes an A record for the
  generated domain and routes it on a shared virtual-hosting edge
  (Figure 14);
* releasing a resource purges the provider-side record and route — but
  of course cannot purge the *customer's* CNAME, which now dangles;
* the released freetext name becomes available again and anyone,
  including an attacker, can re-register it (Section 4.3's
  "deterministic re-registration");
* custom domains are attached after a CNAME-chain verification — which
  a dangling record passes by construction, so the attacker can alias
  the victim FQDN onto their resource.

An optional re-registration cooldown and name-randomization switch
implement the countermeasures the paper recommends in Section 7, so
their effect can be measured (see ``benchmarks/bench_countermeasures.py``).
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from datetime import datetime, timedelta
from typing import Dict, List, Optional, Tuple

from repro.cloud.resources import CloudResource, ResourceStatus
from repro.cloud.specs import CloudServiceSpec, NamingPolicy
from repro.dns.names import normalize_name
from repro.dns.records import RRType, ResourceRecord
from repro.dns.resolver import Resolver
from repro.dns.zone import ZoneRegistry
from repro.net.addresses import IPv4Pool
from repro.net.network import Network
from repro.sim.events import EventLog
from repro.sim.revisions import RevisionJournal
from repro.web.server import VirtualHostServer, dedicated_server


class ProvisioningError(RuntimeError):
    """Raised when a resource cannot be created (name taken, etc.)."""


class ReleaseError(RuntimeError):
    """Raised on invalid release operations."""


class CustomDomainError(RuntimeError):
    """Raised when custom-domain verification fails."""


class CloudProvider:
    """One cloud platform.

    Parameters
    ----------
    name:
        Provider display name ("Azure", "AWS", ...).
    specs:
        The service specs belonging to this provider.
    pool:
        The provider's published IP space.
    edge_count:
        Number of shared virtual-hosting edge servers to stand up.
    edge_icmp_drop_rate:
        Fraction of edges configured to drop ICMP (drives the paper's
        Section 2 liveness comparison).
    reregistration_cooldown:
        Quarantine on released freetext names (countermeasure knob;
        the paper's measured reality is zero).
    randomize_names:
        When true, freetext services behave like RANDOM_NAME services —
        the other recommended countermeasure.
    """

    def __init__(
        self,
        name: str,
        specs: List[CloudServiceSpec],
        pool: IPv4Pool,
        zones: ZoneRegistry,
        network: Network,
        rng: random.Random,
        events: Optional[EventLog] = None,
        edge_count: int = 4,
        edge_icmp_drop_rate: float = 0.0,
        reregistration_cooldown: timedelta = timedelta(0),
        randomize_names: bool = False,
        journal: Optional[RevisionJournal] = None,
    ):
        self.name = name
        self.specs = {spec.key: spec for spec in specs}
        self.pool = pool
        self._zones = zones
        self._network = network
        self._rng = rng
        if events is None and journal is not None and journal.events is not None:
            # A journal bound to a log implies that log is the world's.
            events = journal.events
        self._events = events if events is not None else EventLog()
        #: Revision journal every mutation (provision, release, routing,
        #: site content) publishes through; a private one bound to this
        #: provider's event log keeps standalone providers working.
        self.journal = journal if journal is not None else RevisionJournal(self._events)
        self.reregistration_cooldown = reregistration_cooldown
        self.randomize_names = randomize_names
        self._resolver: Optional[Resolver] = None
        #: Fault-injection plan shared with servers this provider stands
        #: up (set post-construction by the Internet when chaos is on).
        self.fault_plan = None

        self._active: Dict[Tuple[str, str], CloudResource] = {}
        self._released_at: Dict[Tuple[str, str], datetime] = {}
        # Keyed by (service_key, name) — unique among *active* resources
        # and, unlike id(), stable across pickle round-trips (checkpoint
        # resume restores the engine in a fresh process).
        self._resource_edges: Dict[Tuple[str, str], VirtualHostServer] = {}

        self._ensure_zones()
        self._edges: List[VirtualHostServer] = []
        self._build_edges(edge_count, edge_icmp_drop_rate)
        self._wildcard_edges: Dict[Tuple[str, Optional[str]], VirtualHostServer] = {}
        self._publish_wildcards()

    # -- construction helpers -------------------------------------------------

    def _ensure_zones(self) -> None:
        for spec in self.specs.values():
            if spec.zone_apex and self._zones.get_zone(spec.zone_apex) is None:
                self._zones.create_zone(spec.zone_apex)

    def _build_edges(self, edge_count: int, icmp_drop_rate: float) -> None:
        for index in range(edge_count):
            drop_icmp = self._rng.random() < icmp_drop_rate
            edge = VirtualHostServer(self.name, icmp=not drop_icmp, journal=self.journal)
            ip = self.pool.allocate(self._rng)
            self._network.bind(ip, edge)
            edge.ip = ip  # annotate for routing bookkeeping
            self._edges.append(edge)

    def _publish_wildcards(self) -> None:
        """Install the permanent wildcard DNS of S3-style services.

        One designated edge per region answers for every name under the
        service base — deleted resources included, which then get the
        provider 404 (the takeover-scanner fingerprint).
        """
        from repro.sim.clock import DEFAULT_START

        for spec in self.specs.values():
            if not spec.wildcard_dns:
                continue
            zone = self._zones.get_zone(spec.zone_apex)
            for region in (spec.regions or (None,)):
                edge = self._rng.choice(self._edges)
                self._wildcard_edges[(spec.key, region)] = edge
                base = spec.wildcard_base(region)
                zone.add(
                    ResourceRecord(name=f"*.{base}", rtype=RRType.A, rdata=edge.ip),
                    DEFAULT_START,
                )

    def attach_resolver(self, resolver: Resolver) -> None:
        """Give the provider a resolver for custom-domain verification."""
        self._resolver = resolver

    # -- introspection -------------------------------------------------------------

    @property
    def events(self) -> EventLog:
        return self._events

    @property
    def edges(self) -> List[VirtualHostServer]:
        return list(self._edges)

    def is_name_available(
        self, service_key: str, name: str, at: Optional[datetime] = None
    ) -> bool:
        """Whether a freetext name can currently be registered.

        This is the check an attacker performs before a takeover
        attempt; it honours the re-registration cooldown if one is
        configured.
        """
        key = (service_key, name)
        if key in self._active:
            return False
        if at is not None and self.reregistration_cooldown > timedelta(0):
            released = self._released_at.get(key)
            if released is not None and at < released + self.reregistration_cooldown:
                return False
        return True

    # -- provisioning --------------------------------------------------------------------

    def provision(
        self,
        service_key: str,
        name: str,
        owner: str,
        at: datetime,
        region: Optional[str] = None,
    ) -> CloudResource:
        """Create a resource; returns the :class:`CloudResource`.

        For FREETEXT services ``name`` is the customer's chosen label;
        for RANDOM_NAME services (and when ``randomize_names`` is on)
        the label is generated and ``name`` is only a hint recorded as
        the resource's display name.
        """
        spec = self._spec(service_key)
        if spec.naming == NamingPolicy.DEDICATED_IP:
            return self._provision_dedicated_ip(spec, name, owner, at)
        if spec.naming == NamingPolicy.DNS_ZONE:
            return self._provision_dns_zone(spec, name, owner, at)
        label = name
        if spec.naming == NamingPolicy.RANDOM_NAME or self.randomize_names:
            label = self._random_label()
        if not self.is_name_available(service_key, label, at):
            raise ProvisioningError(f"{service_key} name {label!r} is taken")
        if spec.regions and region is None:
            region = self._rng.choice(spec.regions)
        fqdn = spec.generated_fqdn(label, region)
        resource = CloudResource(
            spec=spec, name=label, owner=owner, created_at=at,
            generated_fqdn=fqdn, region=region,
        )
        if spec.wildcard_dns:
            # The wildcard already resolves the name; only routing is
            # per-resource state.
            edge = self._wildcard_edges[(spec.key, region)]
        else:
            edge = self._rng.choice(self._edges)
            zone = self._zones.get_zone(spec.zone_apex)
            zone.add(ResourceRecord(name=fqdn, rtype=RRType.A, rdata=edge.ip), at)
        resource.ip = edge.ip
        edge.route(fqdn, resource.site)
        self._register(resource, edge, at)
        return resource

    def _provision_dedicated_ip(
        self, spec: CloudServiceSpec, name: str, owner: str, at: datetime
    ) -> CloudResource:
        resource = CloudResource(spec=spec, name=name, owner=owner, created_at=at)
        server = dedicated_server(
            self.name, resource.site, fault_plan=self.fault_plan, journal=self.journal
        )
        ip = self.pool.allocate(self._rng)
        self._network.bind(ip, server)
        server.ip = ip
        resource.ip = ip
        self._register(resource, server, at)
        return resource

    def _provision_dns_zone(
        self, spec: CloudServiceSpec, name: str, owner: str, at: datetime
    ) -> CloudResource:
        # Hosted DNS: the customer's zone is served from a randomly
        # assigned nameserver set (purple in Figure 13).
        ns_set = sorted(
            spec.generated_fqdn(f"{self._rng.randrange(1, 100)}-{self._random_label(6)}")
            for _ in range(2)
        )
        resource = CloudResource(
            spec=spec, name=name, owner=owner, created_at=at,
            generated_fqdn=ns_set[0],
        )
        resource.nameservers = ns_set
        self._register(resource, None, at)
        return resource

    def _register(
        self, resource: CloudResource, edge: Optional[VirtualHostServer], at: datetime
    ) -> None:
        self._active[(resource.service_key, resource.name)] = resource
        if edge is not None:
            self._resource_edges[(resource.service_key, resource.name)] = edge
        self._adopt_site(resource)
        self.journal.bump("cloud", resource.generated_fqdn or resource.ip)
        self._events.record(
            at, "cloud.provision", resource.generated_fqdn or resource.ip,
            provider=self.name, service=resource.service_key,
            name=resource.name, owner=resource.owner,
        )

    def _adopt_site(self, resource: CloudResource) -> None:
        """Attach the resource's site to the journal under a stable key.

        The key survives site swaps (``replace_site``) and — on purpose
        — collides across re-registrations of the same freetext name,
        so a monitor that sampled the old tenant sees the new tenant's
        deploys as changes to the same subject.
        """
        site = resource.site
        if site is not None and hasattr(site, "bind_journal"):
            site.bind_journal(
                self.journal, (self.name, resource.service_key, resource.name)
            )

    # -- release -------------------------------------------------------------------------------

    def release(self, resource: CloudResource, at: datetime) -> None:
        """Tear down a resource.

        Provider-side state (records, routes, IP binding) is purged —
        the point is that nothing the provider does here can purge the
        *customer's* DNS, which is what dangles.
        """
        key = (resource.service_key, resource.name)
        if self._active.get(key) is not resource:
            raise ReleaseError(f"resource not active: {resource!r}")
        edge = self._resource_edges.pop((resource.service_key, resource.name), None)
        if resource.generated_fqdn and resource.spec.zone_apex:
            if not resource.spec.wildcard_dns:
                zone = self._zones.get_zone(resource.spec.zone_apex)
                zone.remove_all(resource.generated_fqdn, RRType.A, at)
            if edge is not None:
                edge.unroute(resource.generated_fqdn)
        if edge is not None:
            for custom in resource.custom_domains:
                if custom.lower() in [h.lower() for h in edge.routed_hosts()]:
                    edge.unroute(custom)
        if resource.spec.naming == NamingPolicy.DEDICATED_IP and resource.ip:
            self._network.unbind(resource.ip)
            self.pool.release(resource.ip)
        resource.status = ResourceStatus.RELEASED
        resource.released_at = at
        del self._active[key]
        self._released_at[key] = at
        self.journal.bump("cloud", resource.generated_fqdn or resource.ip)
        self._events.record(
            at, "cloud.release", resource.generated_fqdn or resource.ip,
            provider=self.name, service=resource.service_key,
            name=resource.name, owner=resource.owner,
        )

    # -- custom domains & certificates -------------------------------------------------------------

    def add_custom_domain(self, resource: CloudResource, fqdn: str, at: datetime) -> None:
        """Alias ``fqdn`` onto ``resource`` after CNAME verification.

        The provider checks that ``fqdn``'s CNAME chain reaches the
        resource's generated domain.  A dangling record passes this
        check *by definition* — which is exactly how attackers attach
        victim domains to re-registered resources.
        """
        if not resource.active:
            raise CustomDomainError("resource is not active")
        if not resource.generated_fqdn:
            raise CustomDomainError("resource has no generated domain to verify against")
        if self._resolver is None:
            raise CustomDomainError("provider has no resolver attached")
        fqdn = normalize_name(fqdn)
        # The provider verifies through its own resolvers, not the flaky
        # measurement path — chaos injection never fails this check.
        guard = (
            self.fault_plan.suppressed() if self.fault_plan is not None
            else nullcontext()
        )
        with guard:
            result = self._resolver.resolve_a_with_chain(fqdn, at=at)
        if resource.generated_fqdn not in result.cname_chain:
            raise CustomDomainError(
                f"{fqdn} does not CNAME to {resource.generated_fqdn}"
            )
        edge = self._resource_edges.get((resource.service_key, resource.name))
        if edge is None:
            raise CustomDomainError("resource has no edge (dedicated-IP resource?)")
        edge.route(fqdn, resource.site)
        resource.custom_domains.append(fqdn)
        self.journal.bump("cloud", fqdn)
        self._events.record(
            at, "cloud.custom_domain", fqdn,
            provider=self.name, service=resource.service_key,
            resource=resource.name, owner=resource.owner,
        )

    def replace_site(self, resource: CloudResource, site) -> None:
        """Swap the content implementation behind a resource.

        All existing routes (generated domain and custom domains) are
        re-pointed at ``site``.  Used e.g. when an attacker deploys an
        instrumented (cookie-harvesting) site onto a taken-over
        resource.
        """
        edge = self._resource_edges.get((resource.service_key, resource.name))
        if edge is None:
            raise ReleaseError("resource has no routable server")
        hostnames = [resource.generated_fqdn] + list(resource.custom_domains)
        for hostname in hostnames:
            if hostname:
                edge.unroute(hostname)
                edge.route(hostname, site)
        resource.site = site
        self._adopt_site(resource)
        # The swap itself is a content change for the site's subject,
        # even before the new tenant writes a single page.
        if hasattr(site, "journal_key") and site.journal_key is not None:
            self.journal.bump("site", site.journal_key)

    def install_certificate(self, resource: CloudResource, hostname: str, certificate) -> None:
        """Install a TLS certificate for ``hostname`` on the resource's server."""
        edge = self._resource_edges.get((resource.service_key, resource.name))
        if edge is None:
            raise ReleaseError("resource has no server to install a certificate on")
        edge.install_certificate(hostname, certificate)

    def challenge_installer(self, resource: CloudResource):
        """An ACME HTTP-01 installer bound to this resource's site.

        The returned callable serves challenge bytes from the resource
        for any hostname routed to it — the owner's *and* a hijacker's
        path to a valid certificate (Section 5.6).
        """

        def install(host: str, path: str, body: str) -> bool:
            served_hosts = [resource.generated_fqdn] + list(resource.custom_domains)
            if normalize_name(host) not in [normalize_name(h) for h in served_hosts if h]:
                return False
            resource.site.put(path, body, content_type="text/plain")
            return True

        return install

    # -- internals ----------------------------------------------------------------------------------

    def _spec(self, service_key: str) -> CloudServiceSpec:
        spec = self.specs.get(service_key)
        if spec is None:
            raise ProvisioningError(f"{self.name} has no service {service_key!r}")
        return spec

    def _random_label(self, length: int = 12) -> str:
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        return "".join(self._rng.choice(alphabet) for _ in range(length))
