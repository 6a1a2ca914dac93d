"""Resolution-chain reconstruction and dangling-record classification.

Prior work measured the *attack surface*: [18]'s hostingChecker
reconstructs full resolution chains to find hosting-based dangling
domains, [3] counted released cloud IPs still pointed at, [12] started
it all.  This module provides that defender-side apparatus over the
simulated Internet: classify every monitored FQDN's chain into healthy
/ dangling variants, decide whether the dangling form is actually
*hijackable* (the paper's refinement: only freetext resources are), and
survey a whole monitored set.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from typing import List, Sequence, Tuple

from repro.cloud.specs import NamingPolicy, parse_generated_fqdn
from repro.dns.names import Name
from repro.dns.resolver import ResolutionStatus
from repro.web.client import FetchStatus
from repro.world.internet import Internet


class ChainStatus(enum.Enum):
    """What the resolution chain of one FQDN looks like."""

    HEALTHY = "healthy"
    #: CNAME chain reaches a cloud suffix whose name no longer exists.
    DANGLING_CNAME = "dangling-cname"
    #: Resolves via a provider wildcard but the resource is gone
    #: (S3-style: HTTP answers with the provider 404 fingerprint).
    DANGLING_WILDCARD = "dangling-wildcard"
    #: A record points at an address nothing answers on.
    DANGLING_ADDRESS = "dangling-address"
    #: Name does not resolve and no cloud chain is involved.
    BROKEN = "broken"


@dataclass(frozen=True)
class ChainReport:
    """Classification of one FQDN's chain."""

    fqdn: Name
    status: ChainStatus
    cname_chain: Tuple[str, ...]
    addresses: Tuple[str, ...]
    service_key: str = ""
    provider: str = ""
    resource_name: str = ""
    #: Whether an attacker could take this over *deterministically*
    #: right now (freetext naming + name currently available).
    hijackable: bool = False


def analyze_chain(internet: Internet, fqdn: Name, at: datetime) -> ChainReport:
    """Reconstruct and classify the resolution chain of ``fqdn``."""
    resolution = internet.resolver.resolve_a_with_chain(fqdn, at=at)
    chain = tuple(resolution.cname_chain)
    addresses = tuple(resolution.addresses)
    parsed = None
    for target in chain:
        parsed = parse_generated_fqdn(target)
        if parsed is not None:
            break
    service_key = parsed.spec.key if parsed else ""
    provider = parsed.spec.provider if parsed else ""
    resource_name = parsed.name if parsed else ""

    if resolution.status == ResolutionStatus.NXDOMAIN and parsed is not None:
        return ChainReport(
            fqdn=fqdn, status=ChainStatus.DANGLING_CNAME, cname_chain=chain,
            addresses=addresses, service_key=service_key, provider=provider,
            resource_name=resource_name,
            hijackable=_is_hijackable(internet, parsed, at),
        )
    if not resolution.ok:
        return ChainReport(
            fqdn=fqdn, status=ChainStatus.BROKEN, cname_chain=chain,
            addresses=addresses, service_key=service_key, provider=provider,
        )

    outcome = internet.client.fetch(fqdn, at=at)
    if outcome.status == FetchStatus.CONNECTION_FAILED:
        return ChainReport(
            fqdn=fqdn, status=ChainStatus.DANGLING_ADDRESS, cname_chain=chain,
            addresses=addresses, service_key=service_key, provider=provider,
        )
    if (
        outcome.ok
        and outcome.response.status == 404
        and "X-Provider" in outcome.response.headers
        and parsed is not None
    ):
        return ChainReport(
            fqdn=fqdn, status=ChainStatus.DANGLING_WILDCARD, cname_chain=chain,
            addresses=addresses, service_key=service_key, provider=provider,
            resource_name=resource_name,
            hijackable=_is_hijackable(internet, parsed, at),
        )
    return ChainReport(
        fqdn=fqdn, status=ChainStatus.HEALTHY, cname_chain=chain,
        addresses=addresses, service_key=service_key, provider=provider,
        resource_name=resource_name,
    )


def _is_hijackable(internet: Internet, parsed, at: datetime) -> bool:
    if parsed.spec.naming != NamingPolicy.FREETEXT:
        return False
    provider = internet.catalog.provider(parsed.spec.provider)
    return provider.is_name_available(parsed.spec.key, parsed.name, at)


@dataclass
class AttackSurfaceReport:
    """Survey of a monitored set's dangling exposure."""

    reports: List[ChainReport]
    by_status: Counter = field(default_factory=Counter)
    hijackable: int = 0
    hijackable_by_service: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return len(self.reports)

    @property
    def dangling_total(self) -> int:
        return (
            self.by_status[ChainStatus.DANGLING_CNAME]
            + self.by_status[ChainStatus.DANGLING_WILDCARD]
            + self.by_status[ChainStatus.DANGLING_ADDRESS]
        )

    def rows(self) -> List[Tuple[str, int]]:
        """(status, count) rows for rendering."""
        return [(status.value, self.by_status.get(status, 0)) for status in ChainStatus]


def survey_attack_surface(
    internet: Internet, fqdns: Sequence[Name], at: datetime
) -> AttackSurfaceReport:
    """Classify every FQDN and aggregate the exposure picture.

    This is the measurement prior work stopped at — counting vulnerable
    domains; the paper's point is that only the ``hijackable`` subset
    (freetext, currently available) is what attackers actually take.
    """
    report = AttackSurfaceReport(reports=[])
    for fqdn in fqdns:
        chain = analyze_chain(internet, fqdn, at)
        report.reports.append(chain)
        report.by_status[chain.status] += 1
        if chain.hijackable:
            report.hijackable += 1
            report.hijackable_by_service[chain.service_key] += 1
    return report
