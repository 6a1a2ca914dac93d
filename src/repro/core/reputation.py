"""Victim-reputation analyses (Section 5.2.3, Figure 18).

Why attackers pick these domains: inherited reputation.  Measures the
WHOIS-age distribution of abused second-level domains (98.51% older
than a year, most over a decade), the share of abused (sub)domains with
valid certificates (18.2%), and HSTS deployment on parent domains
(~16% of non-error responses, Appendix A.2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from typing import List, Set, Tuple

from repro.core.detection import AbuseDataset
from repro.dns.names import registered_domain
from repro.pki.ct_log import CTLog
from repro.web.client import HttpClient
from repro.whois.registry import DomainRegistry


@dataclass
class ReputationReport:
    """Domain-age and transport-security statistics."""

    ages_years: List[float]
    older_than_year_share: float
    older_than_decade_share: float
    certified_share: float
    hsts_parent_share: float

    def age_histogram(self, bin_years: float = 2.0) -> List[Tuple[str, int]]:
        """Figure 18: abused SLDs binned by WHOIS age."""
        if not self.ages_years:
            return []
        bins: Counter = Counter()
        for age in self.ages_years:
            low = int(age // bin_years) * int(bin_years)
            bins[f"{low}-{low + int(bin_years)}y"] += 1
        return sorted(bins.items(), key=lambda item: int(item[0].split("-")[0]))


def analyze_reputation(
    dataset: AbuseDataset,
    whois: DomainRegistry,
    ct_log: CTLog,
    client: HttpClient,
    at: datetime,
) -> ReputationReport:
    """Compute all reputation aggregates over the abused set."""
    slds: Set[str] = set()
    for fqdn in dataset.abused_fqdns():
        sld = registered_domain(fqdn)
        if sld:
            slds.add(sld)
    ages: List[float] = []
    for sld in sorted(slds):
        record = whois.lookup(sld)
        if record is not None:
            ages.append(record.age_years(at))
    abused = dataset.abused_fqdns()
    certified = sum(1 for f in abused if ct_log.first_issuance_for(f) is not None)

    hsts = 0
    responsive_parents = 0
    for sld in sorted(slds):
        outcome = client.fetch(sld, at=at)
        if not outcome.ok:
            continue
        responsive_parents += 1
        if "Strict-Transport-Security" in outcome.response.headers:
            hsts += 1

    return ReputationReport(
        ages_years=sorted(ages),
        older_than_year_share=(
            sum(1 for a in ages if a > 1.0) / len(ages) if ages else 0.0
        ),
        older_than_decade_share=(
            sum(1 for a in ages if a > 10.0) / len(ages) if ages else 0.0
        ),
        certified_share=certified / len(abused) if abused else 0.0,
        hsts_parent_share=hsts / responsive_parents if responsive_parents else 0.0,
    )
