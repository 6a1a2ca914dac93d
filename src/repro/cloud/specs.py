"""The catalog of cloud services the paper monitors.

Each :class:`CloudServiceSpec` describes one row of Tables 2/3: which
provider, what the service does, the generated-domain template, and —
decisive for hijackability (Section 4.3) — the naming policy:

* ``FREETEXT``: the customer picks the label (``example`` →
  ``example.azurewebsites.net``); publicly visible via the CNAME and
  deterministically re-registrable → the resources actually abused.
* ``RANDOM_NAME``: the provider generates the label (Google's model);
  an attacker cannot replicate it → no abuse observed.
* ``DEDICATED_IP``: the customer gets a random address from the pool;
  re-acquiring a specific one is a lottery → no abuse observed.
* ``DNS_ZONE``: hosted DNS with randomly assigned nameserver sets
  (stale-NS takeover class of [1]).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from repro.cloud.capabilities import AccessLevel


class NamingPolicy(enum.Enum):
    """How a service assigns the identity an attacker would need."""

    FREETEXT = "freetext"
    RANDOM_NAME = "random-name"
    DEDICATED_IP = "dedicated-ip"
    DNS_ZONE = "dns-zone"


@dataclass(frozen=True)
class CloudServiceSpec:
    """One cloud service as monitored by the paper."""

    key: str
    provider: str
    function: str
    naming: NamingPolicy
    access: AccessLevel
    suffix_template: str = ""
    zone_apex: str = ""
    regions: Tuple[str, ...] = ()
    #: Services whose generated names resolve via a DNS wildcard even
    #: after the resource is deleted (S3's model): the name keeps
    #: resolving to the edge, which answers with the provider 404 —
    #: the fingerprint takeover scanners look for.
    wildcard_dns: bool = False

    def wildcard_base(self, region: Optional[str] = None) -> str:
        """The base name under which wildcard DNS answers (S3-style)."""
        if not self.wildcard_dns:
            raise ValueError(f"service {self.key} has no wildcard DNS")
        base = self.suffix_template.replace("{name}.", "", 1)
        if "{region}" in base:
            if region is None:
                raise ValueError(f"service {self.key} requires a region")
            base = base.format(region=region)
        return base

    def generated_fqdn(self, name: str, region: Optional[str] = None) -> str:
        """The provider-generated domain for a resource called ``name``."""
        if not self.suffix_template:
            raise ValueError(f"service {self.key} has no generated domains")
        if "{region}" in self.suffix_template:
            if region is None:
                raise ValueError(f"service {self.key} requires a region")
            if region not in self.regions:
                raise ValueError(f"unknown region {region!r} for {self.key}")
            return self.suffix_template.format(name=name, region=region)
        return self.suffix_template.format(name=name)


_AWS_REGIONS = ("us-east-1", "us-west-2", "eu-west-1", "ap-southeast-1")
_AZURE_REGIONS = ("eastus", "westeurope", "southeastasia")

#: Table 2/3's service list.  Ordering matters only for reporting.
DEFAULT_SERVICE_SPECS: Tuple[CloudServiceSpec, ...] = (
    # -- Azure: the majority of observed abuse -------------------------------
    CloudServiceSpec(
        key="azure-web-app", provider="Azure", function="Web App",
        naming=NamingPolicy.FREETEXT, access=AccessLevel.FULL_WEBSERVER,
        suffix_template="{name}.azurewebsites.net", zone_apex="azurewebsites.net",
    ),
    CloudServiceSpec(
        key="azure-traffic-manager", provider="Azure", function="Traffic Router",
        naming=NamingPolicy.FREETEXT, access=AccessLevel.FULL_WEBSERVER,
        suffix_template="{name}.trafficmanager.net", zone_apex="trafficmanager.net",
    ),
    CloudServiceSpec(
        key="azure-cloudapp-legacy", provider="Azure", function="VM",
        naming=NamingPolicy.FREETEXT, access=AccessLevel.FULL_WEBSERVER,
        suffix_template="{name}.cloudapp.net", zone_apex="cloudapp.net",
    ),
    CloudServiceSpec(
        key="azure-cdn", provider="Azure", function="CDN",
        naming=NamingPolicy.FREETEXT, access=AccessLevel.FULL_WEBSERVER,
        suffix_template="{name}.azureedge.net", zone_apex="azureedge.net",
    ),
    CloudServiceSpec(
        key="azure-cloudapp-regional", provider="Azure", function="VM",
        naming=NamingPolicy.FREETEXT, access=AccessLevel.FULL_WEBSERVER,
        suffix_template="{name}.{region}.cloudapp.azure.com",
        zone_apex="cloudapp.azure.com", regions=_AZURE_REGIONS,
    ),
    CloudServiceSpec(
        key="azure-sip-web-app", provider="Azure", function="Web App",
        naming=NamingPolicy.FREETEXT, access=AccessLevel.FULL_WEBSERVER,
        suffix_template="{name}.sip.azurewebsites.windows.net",
        zone_apex="sip.azurewebsites.windows.net",
    ),
    # -- AWS ---------------------------------------------------------------------
    CloudServiceSpec(
        key="aws-s3-static", provider="AWS", function="Static Hosting",
        naming=NamingPolicy.FREETEXT, access=AccessLevel.STATIC_CONTENT,
        suffix_template="{name}.s3-website.{region}.amazonaws.com",
        zone_apex="amazonaws.com", regions=_AWS_REGIONS,
        wildcard_dns=True,
    ),
    CloudServiceSpec(
        key="aws-elastic-beanstalk", provider="AWS", function="Orchestration",
        naming=NamingPolicy.FREETEXT, access=AccessLevel.FULL_WEBSERVER,
        suffix_template="{name}.{region}.elasticbeanstalk.com",
        zone_apex="elasticbeanstalk.com", regions=_AWS_REGIONS,
    ),
    CloudServiceSpec(
        key="aws-ec2-ip", provider="AWS", function="VM (dedicated IP)",
        naming=NamingPolicy.DEDICATED_IP, access=AccessLevel.FULL_WEBSERVER,
    ),
    # -- the long tail ----------------------------------------------------------------
    CloudServiceSpec(
        key="heroku-app", provider="Heroku", function="Web App",
        naming=NamingPolicy.FREETEXT, access=AccessLevel.FULL_WEBSERVER,
        suffix_template="{name}.herokuapp.com", zone_apex="herokuapp.com",
    ),
    CloudServiceSpec(
        key="pantheon-site", provider="Pantheon", function="CMS",
        naming=NamingPolicy.FREETEXT, access=AccessLevel.STATIC_CONTENT,
        suffix_template="live-{name}.pantheonsite.io", zone_apex="pantheonsite.io",
    ),
    CloudServiceSpec(
        key="netlify-app", provider="Netlify", function="Web App",
        naming=NamingPolicy.FREETEXT, access=AccessLevel.FULL_WEBSERVER,
        suffix_template="{name}.netlify.app", zone_apex="netlify.app",
    ),
    # -- platforms with no observed abuse (random identifiers) ---------------------------
    CloudServiceSpec(
        key="gcp-appspot", provider="Google Cloud", function="Web App",
        naming=NamingPolicy.RANDOM_NAME, access=AccessLevel.FULL_WEBSERVER,
        suffix_template="{name}.appspot.com", zone_apex="appspot.com",
    ),
    CloudServiceSpec(
        key="gcp-vm-ip", provider="Google Cloud", function="VM (dedicated IP)",
        naming=NamingPolicy.DEDICATED_IP, access=AccessLevel.FULL_WEBSERVER,
    ),
    CloudServiceSpec(
        key="cloudflare-lb", provider="Cloudflare", function="CDN & Load Balancing",
        naming=NamingPolicy.RANDOM_NAME, access=AccessLevel.FULL_WEBSERVER,
        suffix_template="{name}.cdn.cloudflare.net", zone_apex="cdn.cloudflare.net",
    ),
    CloudServiceSpec(
        key="azure-dns-zone", provider="Azure", function="DNS Hosting",
        naming=NamingPolicy.DNS_ZONE, access=AccessLevel.DNS_ZONE,
        suffix_template="ns{name}.azure-dns.com", zone_apex="azure-dns.com",
    ),
)

_SPEC_INDEX: Dict[str, CloudServiceSpec] = {s.key: s for s in DEFAULT_SERVICE_SPECS}


def spec_by_key(key: str) -> CloudServiceSpec:
    """Look up a service spec; unknown keys raise ``KeyError``."""
    return _SPEC_INDEX[key]


class ParsedGeneratedFqdn(NamedTuple):
    """Result of reverse-parsing a provider-generated domain."""

    spec: CloudServiceSpec
    name: str
    region: Optional[str]


def _template_regex(template: str) -> "re.Pattern":
    pattern = re.escape(template)
    pattern = pattern.replace(re.escape("{name}"), r"(?P<name>[a-z0-9-]+)")
    pattern = pattern.replace(re.escape("{region}"), r"(?P<region>[a-z0-9-]+)")
    return re.compile(rf"^{pattern}$")


_TEMPLATE_REGEXES: Tuple[Tuple[CloudServiceSpec, "re.Pattern"], ...] = tuple(
    (spec, _template_regex(spec.suffix_template))
    for spec in DEFAULT_SERVICE_SPECS
    if spec.suffix_template
)


def parse_generated_fqdn(fqdn: str) -> Optional[ParsedGeneratedFqdn]:
    """Recover (service, resource name, region) from a generated domain.

    This is the attacker's (and the analyst's) reverse step: seeing
    ``example.azurewebsites.net`` in a CNAME, recognise the service and
    the freely chosen label ``example`` that could be re-registered.
    Returns ``None`` for domains that match no known template.
    """
    lowered = fqdn.lower().rstrip(".")
    for spec, regex in _TEMPLATE_REGEXES:
        match = regex.match(lowered)
        if match:
            groups = match.groupdict()
            return ParsedGeneratedFqdn(
                spec=spec, name=groups["name"], region=groups.get("region")
            )
    return None


def cloud_suffixes(specs: Tuple[CloudServiceSpec, ...] = DEFAULT_SERVICE_SPECS) -> Tuple[str, ...]:
    """The suffix list fed to Algorithm 1 (Appendix A.1)."""
    suffixes = []
    for spec in specs:
        if spec.zone_apex and spec.zone_apex not in suffixes:
            suffixes.append(spec.zone_apex)
    return tuple(suffixes)


#: Provider-published IP ranges (Appendix A.1's range feeds), scaled to
#: simulation size.  Each provider's edges and VMs draw from these.
DEFAULT_PROVIDER_CIDRS: Dict[str, Tuple[str, ...]] = {
    "Azure": ("20.40.0.0/13", "40.64.0.0/13"),
    "AWS": ("52.0.0.0/11", "54.144.0.0/12"),
    "Heroku": ("34.192.0.0/16",),
    "Pantheon": ("23.185.0.0/16",),
    "Netlify": ("75.2.0.0/16",),
    "Google Cloud": ("34.64.0.0/13", "35.184.0.0/13"),
    "Cloudflare": ("104.16.0.0/13",),
}

#: Headquarters country per provider, used to seed GeoIP annotations.
DEFAULT_PROVIDER_COUNTRIES: Dict[str, str] = {
    "Azure": "US",
    "AWS": "US",
    "Heroku": "US",
    "Pantheon": "US",
    "Netlify": "US",
    "Google Cloud": "US",
    "Cloudflare": "US",
}
