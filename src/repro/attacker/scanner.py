"""Attacker-side reconnaissance for dangling records.

The attack needs no special capability (Section 1): collect domain
names (passive DNS, Certificate Transparency), spot CNAME targets with
known cloud suffixes, check whether the resource still exists, and if
not, re-register it.  The scanner implements exactly that loop and
ranks candidates by the victim's reputation — domain age and Tranco
rank — since reputation is what the SEO abuse monetizes (Section 5.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, List, Optional, Set

from repro.cloud.specs import NamingPolicy, ParsedGeneratedFqdn, parse_generated_fqdn
from repro.dns.names import registered_domain
from repro.dns.records import RRType
from repro.dns.resolver import ResolutionStatus
from repro.world.internet import Internet


@dataclass
class TakeoverCandidate:
    """One re-registrable resource and the domains that still point at it."""

    generated_fqdn: str
    service_key: str
    provider: str
    resource_name: str
    region: Optional[str]
    victim_fqdns: List[str] = field(default_factory=list)
    #: Reputation score used for ranking (higher = juicier target).
    reputation: float = 0.0


class DanglingScanner:
    """Finds dangling, re-registrable cloud resources via passive DNS."""

    def __init__(self, internet: Internet):
        self._internet = internet
        #: Incremental CT consumption: index of the next unseen log
        #: entry, plus the accumulated target -> CT-victim map.
        self._ct_cursor = 0
        self._ct_victims: Dict[str, Set[str]] = {}
        #: target -> ``parse_generated_fqdn(target)``: the same targets
        #: come back every week, and the parse is a pure function of
        #: the name.  The evaluation that follows is not cached: its
        #: resolutions and fetches feed passive DNS, and reputation
        #: depends on ``at``.
        self._parsed: Dict[str, Optional[ParsedGeneratedFqdn]] = {}

    def find_candidates(self, at: datetime) -> List[TakeoverCandidate]:
        """All currently exploitable candidates, best reputation first."""
        targets = self._collect_targets(at)
        candidates: List[TakeoverCandidate] = []
        for target in sorted(targets):
            candidate = self._evaluate_target(target, at, targets[target])
            if candidate is not None and candidate.victim_fqdns:
                candidates.append(candidate)
        candidates.sort(key=lambda c: -c.reputation)
        return candidates

    def _collect_targets(self, at: datetime) -> Dict[str, Set[str]]:
        """Cloud CNAME targets from both public recon channels.

        Passive DNS supplies most targets; Certificate Transparency
        supplies the rest — every certificate ever issued leaks its
        hostnames, and resolving those reveals their (possibly
        dangling) CNAME targets.  Section 1: "collecting domain names
        (e.g., via passiveDNS or Certificate Transparency)".  Returns
        target -> victim names discovered through CT (passive-DNS
        victims are looked up separately during evaluation).
        """
        entries = self._internet.ct_log.entries()
        for entry in entries[self._ct_cursor:]:
            for san in entry.certificate.sans:
                if san.startswith("*."):
                    continue
                result = self._internet.resolver.resolve(san, RRType.CNAME, at=at)
                for record in result.records:
                    self._ct_victims.setdefault(record.rdata, set()).add(san)
        self._ct_cursor = len(entries)
        targets: Dict[str, Set[str]] = {
            target: set() for target in self._internet.passive_dns.cname_targets()
        }
        for target, victims in self._ct_victims.items():
            targets.setdefault(target, set()).update(victims)
        return targets

    def _evaluate_target(
        self, target: str, at: datetime, extra_victims: Optional[Set[str]] = None
    ) -> Optional[TakeoverCandidate]:
        try:
            parsed = self._parsed[target]
        except KeyError:
            parsed = self._parsed[target] = parse_generated_fqdn(target)
        if parsed is None:
            return None
        if parsed.spec.naming != NamingPolicy.FREETEXT:
            # Random names can't be replicated; IP lotteries aren't
            # worth playing (Section 4.3) — attackers skip both.
            return None
        provider = self._internet.catalog.provider(parsed.spec.provider)
        if not provider.is_name_available(parsed.spec.key, parsed.name, at):
            return None
        known = set(self._internet.passive_dns.names_pointing_to(target))
        known |= extra_victims or set()
        victims = []
        for fqdn in sorted(known):
            if self._still_dangling(fqdn, target, at):
                victims.append(fqdn)
        candidate = TakeoverCandidate(
            generated_fqdn=target,
            service_key=parsed.spec.key,
            provider=parsed.spec.provider,
            resource_name=parsed.name,
            region=parsed.region,
            victim_fqdns=victims,
        )
        candidate.reputation = sum(self._reputation(v, at) for v in victims)
        return candidate

    def _still_dangling(self, fqdn: str, target: str, at: datetime) -> bool:
        """Confirmation that the record still points and dangles.

        For most services a released resource means NXDOMAIN on the
        generated name.  Wildcard-DNS services (S3) keep resolving, so
        the check there is the classic takeover-scanner fingerprint:
        the FQDN serves the provider's "no such resource" 404.
        """
        result = self._internet.resolver.resolve_a_with_chain(fqdn, at=at)
        if target not in result.cname_chain:
            return False
        if result.status == ResolutionStatus.NXDOMAIN:
            return True
        if result.ok:
            outcome = self._internet.client.fetch(fqdn, at=at)
            return (
                outcome.ok
                and outcome.response.status == 404
                and "X-Provider" in outcome.response.headers
            )
        return False

    def _reputation(self, fqdn: str, at: datetime) -> float:
        """Public reputation signals an attacker can query."""
        score = 1.0
        record = self._internet.whois.lookup(fqdn)
        if record is not None:
            score += min(record.age_years(at), 25.0) / 5.0
        sld = registered_domain(fqdn)
        if sld is not None:
            first_cert = self._internet.ct_log.first_issuance_for(fqdn)
            if first_cert is not None:
                score += 1.0  # has TLS history: an established service
        return score
