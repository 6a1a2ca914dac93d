"""Ground-truth hijack records.

The simulation knows what the paper could never know for certain: which
takeovers actually happened, by whom, and when.  Attacker campaigns
append to this log; the world engine reads it to drive remediation and
AV flagging; the evaluation extensions score the detector against it.
The *measurement pipeline itself never reads this log* — it works only
from externally observable data, like the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Dict, List, Optional

from repro.cloud.resources import CloudResource
from repro.dns.names import Name
from repro.world.organizations import Asset


@dataclass
class HijackRecord:
    """One successful takeover of a dangling record."""

    asset: Asset
    attacker_group: str
    resource: CloudResource
    taken_over_at: datetime
    remediated_at: Optional[datetime] = None

    @property
    def fqdn(self) -> Name:
        return self.asset.fqdn

    @property
    def active(self) -> bool:
        return self.remediated_at is None

    def duration_days(self, now: Optional[datetime] = None) -> float:
        """Days the hijack lasted (or has lasted, given ``now``).

        Like :meth:`AbuseEpisode.duration_days`, ``now`` must be the
        naive simulation clock — tz-aware values betray wall-clock use
        and an active hijack needs an explicit censoring instant.
        """
        if now is not None and now.tzinfo is not None:
            raise ValueError(
                "duration_days(now=...) takes a naive simulation-clock "
                f"datetime; got tz-aware {now.isoformat()}, which looks "
                "like wall-clock time"
            )
        end = self.remediated_at or now
        if end is None:
            raise ValueError(
                "hijack still active: pass now= from the simulation "
                "clock (e.g. result.end), never datetime.now()"
            )
        return (end - self.taken_over_at).total_seconds() / 86_400.0


class GroundTruthLog:
    """All hijacks that truly occurred in this world."""

    def __init__(self) -> None:
        self._records: List[HijackRecord] = []
        self._by_fqdn: Dict[Name, List[HijackRecord]] = {}

    def record_takeover(
        self,
        asset: Asset,
        attacker_group: str,
        resource: CloudResource,
        at: datetime,
    ) -> HijackRecord:
        """Register a successful takeover."""
        record = HijackRecord(
            asset=asset, attacker_group=attacker_group, resource=resource,
            taken_over_at=at,
        )
        self._records.append(record)
        self._by_fqdn.setdefault(asset.fqdn, []).append(record)
        return record

    def mark_remediated(self, fqdn: Name, at: datetime) -> None:
        """Close the active hijack of ``fqdn``, if any."""
        for record in self._by_fqdn.get(fqdn, []):
            if record.active:
                record.remediated_at = at

    def all_records(self) -> List[HijackRecord]:
        return list(self._records)

    def active_records(self) -> List[HijackRecord]:
        return [r for r in self._records if r.active]

    def records_for(self, fqdn: Name) -> List[HijackRecord]:
        return list(self._by_fqdn.get(fqdn, []))

    def hijacked_fqdns(self) -> List[Name]:
        """Every FQDN that was hijacked at least once, sorted."""
        return sorted(self._by_fqdn)

    def __len__(self) -> int:
        return len(self._records)
