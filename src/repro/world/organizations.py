"""Organizations and their digital assets."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime
from typing import List, Optional

from repro.cloud.resources import CloudResource
from repro.dns.names import Name


class OrgKind(enum.Enum):
    """The population segments of the paper's search space."""

    ENTERPRISE = "enterprise"
    UNIVERSITY = "university"
    GOVERNMENT = "government"
    POPULAR_SITE = "popular-site"


class AssetKind(enum.Enum):
    """How a subdomain maps to infrastructure."""

    CLOUD_CNAME = "cloud-cname"  # CNAME to a provider-generated domain
    CLOUD_A = "cloud-a"  # A record to a dedicated cloud IP
    SELF_HOSTED = "self-hosted"  # A record to org-owned space


@dataclass
class Asset:
    """One subdomain of an organization and what it points at.

    ``resource`` is the cloud resource currently (or last) backing the
    asset; ``dangling_since`` is set when the resource was released
    without the DNS record being purged; ``remediation_due`` is the
    simulated instant the owner will finally fix a hijacked record
    (sampled from the paper's observed duration mixture).
    """

    fqdn: Name
    kind: AssetKind
    org_key: str
    created_at: datetime
    resource: Optional[CloudResource] = None
    service_key: str = ""
    dangling_since: Optional[datetime] = None
    purged_at: Optional[datetime] = None
    remediation_due: Optional[datetime] = None
    has_certificate: bool = False
    hsts: bool = False

    @property
    def is_dangling(self) -> bool:
        """Record still present while its resource is gone."""
        return self.dangling_since is not None and self.purged_at is None


@dataclass
class Organization:
    """One organization in the search space."""

    key: str
    display_name: str
    kind: OrgKind
    domain: Name
    country: str
    sector: str = ""
    fortune500_rank: Optional[int] = None
    global500_rank: Optional[int] = None
    tranco_rank: Optional[int] = None
    qs_rank: Optional[int] = None
    assets: List[Asset] = field(default_factory=list)
    page_revision: int = 0
    #: Parked domains are registrar-managed: their content rotates
    #: collectively, the benign pattern the registrar rule-out handles.
    is_parked: bool = False
    #: SANs of the org's managed (DNS-validated) certificate, if any —
    #: renewed periodically, feeding Figure 20's multi-SAN series.
    managed_cert_sans: List[str] = field(default_factory=list)

    @property
    def account(self) -> str:
        """The cloud account name this org provisions under."""
        return f"org:{self.key}"

    @property
    def is_fortune500(self) -> bool:
        return self.fortune500_rank is not None

    @property
    def is_global500(self) -> bool:
        return self.global500_rank is not None

    def dangling_assets(self) -> List[Asset]:
        """Assets whose record currently dangles."""
        return [a for a in self.assets if a.is_dangling]
