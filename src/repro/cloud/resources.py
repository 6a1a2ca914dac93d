"""Cloud resource objects and their lifecycle states."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from datetime import datetime
from typing import List, Optional

from repro.cloud.capabilities import AccessLevel, capabilities_for_access
from repro.cloud.specs import CloudServiceSpec, NamingPolicy
from repro.web.site import StaticSite


class ResourceStatus(enum.Enum):
    """Lifecycle state of a cloud resource."""

    ACTIVE = "active"
    RELEASED = "released"


@dataclass
class CloudResource:
    """One provisioned resource (a web app, a bucket, a VM, ...).

    ``generated_fqdn`` is the provider-generated domain (empty for
    dedicated-IP resources, which are reached by address).  ``ip`` is
    the serving address: a shared edge for name-routed services, a
    dedicated address for VMs.  ``site`` is the content the resource
    serves.  ``owner`` is the controlling account name — the ground
    truth that lets the reproduction score the detector, which the
    paper could not do.
    """

    spec: CloudServiceSpec
    name: str
    owner: str
    created_at: datetime
    generated_fqdn: str = ""
    region: Optional[str] = None
    ip: str = ""
    site: StaticSite = field(default_factory=StaticSite)
    status: ResourceStatus = ResourceStatus.ACTIVE
    released_at: Optional[datetime] = None
    custom_domains: List[str] = field(default_factory=list)
    nameservers: List[str] = field(default_factory=list)

    @property
    def provider(self) -> str:
        return self.spec.provider

    @property
    def service_key(self) -> str:
        return self.spec.key

    @property
    def access(self) -> AccessLevel:
        return self.spec.access

    @property
    def is_user_nameable(self) -> bool:
        """Whether the identity was freely chosen (Section 4.3's target)."""
        return self.spec.naming == NamingPolicy.FREETEXT

    @property
    def active(self) -> bool:
        return self.status == ResourceStatus.ACTIVE

    def capabilities(self) -> frozenset:
        """Capabilities a controller of this resource has (Table 4)."""
        return capabilities_for_access(self.access)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        where = self.generated_fqdn or self.ip
        return (
            f"CloudResource({self.spec.key}:{self.name} at {where}, "
            f"owner={self.owner}, {self.status.value})"
        )
