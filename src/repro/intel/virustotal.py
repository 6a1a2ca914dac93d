"""A VirusTotal-like multi-vendor reputation service.

Two roles, mirroring the paper's two VirusTotal analyses (Section 5.4):

* **binary verdicts** — submitted executables (the APKs and the lone
  EXE retrieved from hijacked sites) are labelled per vendor;
* **domain reputation** — AV vendors flag abused domains slowly and
  rarely; Figure 19 shows that widespread blacklisting takes ~2 years
  and most hijacked domains are never flagged at all.

Flagging is modelled as a per-vendor weekly Bernoulli process while a
domain is serving abuse: each vendor has a tiny weekly flag
probability, so expected time-to-flag is years and the stationary
outcome is "a handful of flagged domains, most by a single vendor".
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, List, Tuple

from repro.dns.names import Name, normalize_name

#: Simulated AV vendors with weekly per-domain flag probabilities.
DEFAULT_VENDORS: Tuple[Tuple[str, float], ...] = (
    ("AlphaGuard", 0.0020),
    ("BitSentry", 0.0012),
    ("CarbonShield", 0.0008),
    ("DeltaSecure", 0.0006),
    ("EagleAV", 0.0004),
    ("FortressLabs", 0.0003),
)


@dataclass(frozen=True)
class BinarySample:
    """One downloadable executable found on an abuse site."""

    filename: str
    platform: str  # "android" | "windows" | ...
    sha256: str
    is_trojan: bool = False
    family: str = ""

    @property
    def extension(self) -> str:
        return self.filename.rsplit(".", 1)[-1].lower() if "." in self.filename else ""


@dataclass
class DomainReport:
    """Aggregated vendor flags for one domain."""

    domain: Name
    flags: Dict[str, datetime] = field(default_factory=dict)

    @property
    def flag_count(self) -> int:
        return len(self.flags)


class VirusTotalService:
    """Vendor-flag evolution plus binary scanning."""

    def __init__(
        self,
        rng: random.Random,
        vendors: Tuple[Tuple[str, float], ...] = DEFAULT_VENDORS,
    ):
        self._rng = rng
        self._vendors = vendors
        self._reports: Dict[Name, DomainReport] = {}
        self._binaries: Dict[str, List[str]] = {}

    # -- domain reputation -----------------------------------------------------

    def observe_abuse(self, domain: Name, at: datetime) -> None:
        """One week of a domain serving abuse; vendors may flag it."""
        normalized = normalize_name(domain)
        report = self._reports.setdefault(normalized, DomainReport(domain=normalized))
        for vendor, weekly_probability in self._vendors:
            if vendor in report.flags:
                continue
            if self._rng.random() < weekly_probability:
                report.flags[vendor] = at

    def domain_report(self, domain: Name) -> DomainReport:
        """Vendor flags for ``domain`` (empty report if never seen)."""
        normalized = normalize_name(domain)
        return self._reports.get(normalized, DomainReport(domain=normalized))

    def flagged_domains(self, min_vendors: int = 1) -> List[DomainReport]:
        """Reports flagged by at least ``min_vendors`` vendors."""
        return sorted(
            (r for r in self._reports.values() if r.flag_count >= min_vendors),
            key=lambda r: r.domain,
        )

    # -- binaries ---------------------------------------------------------------

    def scan_binary(self, sample: BinarySample) -> List[str]:
        """Vendor labels for a binary; trojans get detected reliably.

        Results are memoised by hash, as the real service does.
        """
        if sample.sha256 in self._binaries:
            return list(self._binaries[sample.sha256])
        labels: List[str] = []
        if sample.is_trojan:
            for vendor, _ in self._vendors:
                if self._rng.random() < 0.8:
                    family = sample.family or "Generic"
                    labels.append(f"{vendor}: Trojan.{family}")
        self._binaries[sample.sha256] = labels
        return list(labels)
