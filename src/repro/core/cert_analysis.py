"""Certificate analyses (Section 5.6, Figure 20) and CAA evaluation.

From CT history of the abused domains: the single-SAN vs
multi-SAN/wildcard split (hijacker domain validation can only prove one
concrete name, so fraudulent certs are single-SAN), issuance bursts by
free CAs during collection campaigns, and the Section 5.6.2 CAA
statistics showing why CAA does not stop this abuse.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.core.detection import AbuseDataset
from repro.dns.names import registered_domain
from repro.dns.zone import ZoneRegistry
from repro.pki.caa import authorized_issuers, effective_caa_set
from repro.pki.ct_log import CTLog, CTLogEntry
from repro.sim.clock import month_key

#: CAA identifiers of CAs that issue for free — a CAA set containing any
#: of these does not even raise the attacker's cost.
FREE_CA_IDENTIFIERS = frozenset(
    {"letsencrypt.org", "zerossl.com", "microsoft.com", "amazon.com"}
)


@dataclass
class CertificateReport:
    """Figure 20 data plus issuer statistics."""

    single_san_total: int
    multi_san_total: int
    #: month -> (single-SAN count, multi-SAN count) for hijacked domains.
    monthly: List[Tuple[str, int, int]]
    single_san_issuers: List[Tuple[str, int]]
    #: Share of single-SAN certs issued by free ACME CAs.
    free_ca_share: float
    #: Abused FQDNs that had a valid certificate at some point.
    abused_with_certificates: int


def analyze_certificates(
    dataset: AbuseDataset, ct_log: CTLog
) -> CertificateReport:
    """CT-history analysis over the hijacked subdomain set."""
    abused = set(dataset.abused_fqdns())
    single: List[CTLogEntry] = []
    multi: List[CTLogEntry] = []
    for entry in ct_log.entries():
        covered = [name for name in abused if entry.certificate.matches(name)]
        if not covered:
            continue
        if entry.certificate.is_single_san:
            single.append(entry)
        else:
            multi.append(entry)

    months: Dict[str, List[int]] = {}
    for entry in single:
        months.setdefault(month_key(entry.logged_at), [0, 0])[0] += 1
    for entry in multi:
        months.setdefault(month_key(entry.logged_at), [0, 0])[1] += 1
    monthly = [(m, counts[0], counts[1]) for m, counts in sorted(months.items())]

    issuer_counter: Counter = Counter(e.certificate.issuer for e in single)
    free_names = {"Let's Encrypt", "ZeroSSL", "Microsoft Azure TLS", "Amazon"}
    free_count = sum(c for issuer, c in issuer_counter.items() if issuer in free_names)

    with_certs = sum(
        1 for fqdn in abused if ct_log.first_issuance_for(fqdn) is not None
    )
    return CertificateReport(
        single_san_total=len(single),
        multi_san_total=len(multi),
        monthly=monthly,
        single_san_issuers=issuer_counter.most_common(),
        free_ca_share=free_count / len(single) if single else 0.0,
        abused_with_certificates=with_certs,
    )


@dataclass
class CaaReport:
    """Section 5.6.2: CAA deployment and (in)effectiveness."""

    parent_domains: int
    parents_with_caa: int
    parents_paid_only: int
    #: Parents with CAA that still had hijacked subdomains with certs.
    caa_parents_still_certified: int

    @property
    def caa_share(self) -> float:
        return self.parents_with_caa / self.parent_domains if self.parent_domains else 0.0

    @property
    def paid_only_share(self) -> float:
        return self.parents_paid_only / self.parent_domains if self.parent_domains else 0.0


def analyze_caa(
    dataset: AbuseDataset, zones: ZoneRegistry, ct_log: CTLog
) -> CaaReport:
    """CAA statistics over the parents of abused subdomains."""
    parents: Set[str] = set()
    for fqdn in dataset.abused_fqdns():
        sld = registered_domain(fqdn)
        if sld:
            parents.add(sld)
    with_caa = 0
    paid_only = 0
    still_certified = 0
    for parent in sorted(parents):
        rrset = effective_caa_set(zones, parent)
        if rrset is None:
            continue
        with_caa += 1
        issuers = authorized_issuers(zones, parent) or set()
        if issuers and not (issuers & FREE_CA_IDENTIFIERS):
            paid_only += 1
        has_certified_hijack = any(
            registered_domain(fqdn) == parent
            and ct_log.first_issuance_for(fqdn) is not None
            for fqdn in dataset.abused_fqdns()
        )
        if has_certified_hijack:
            still_certified += 1
    return CaaReport(
        parent_domains=len(parents),
        parents_with_caa=with_caa,
        parents_paid_only=paid_only,
        caa_parents_still_certified=still_certified,
    )
