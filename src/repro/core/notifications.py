"""The notification campaign (Section 1, "Ethics and notifications").

The paper notified 300+ affected organizations, who confirmed the
hijacks.  In the simulation, notifying a victim does what it does in
practice: a confirmed owner remediates much sooner than they would have
noticed on their own.  Running a scenario with
``ScenarioConfig.notify_owners`` enabled measures the campaign's effect
on hijack durations — an ablation the paper could not run on itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Dict, List, Optional, Sequence

from repro.dns.names import Name
from repro.sim.events import EventLog
from repro.world.ground_truth import GroundTruthLog
from repro.world.organizations import Asset, Organization


@dataclass(frozen=True)
class NotificationRecord:
    """One notification sent to one victim organization."""

    fqdn: Name
    org_key: str
    sent_at: datetime
    confirmed: bool
    remediation_due: Optional[datetime]


class NotificationCampaign:
    """Sends abuse notifications and tracks owner responses."""

    def __init__(
        self,
        organizations: Sequence[Organization],
        ground_truth: GroundTruthLog,
        events: EventLog,
        rng: random.Random,
        response_delay_days: tuple = (3, 21),
    ):
        self._assets: Dict[Name, Asset] = {}
        self._org_of: Dict[Name, str] = {}
        for org in organizations:
            for asset in org.assets:
                self._assets[asset.fqdn] = asset
                self._org_of[asset.fqdn] = org.key
        self._ground_truth = ground_truth
        self._events = events
        self._rng = rng
        self._response_delay_days = response_delay_days
        self.sent: List[NotificationRecord] = []
        self._notified: set = set()

    def notify(self, fqdns: Sequence[Name], at: datetime) -> List[NotificationRecord]:
        """Notify the owners of newly detected abuses.

        A notification is *confirmed* when the hijack is real (active
        in ground truth — matching the paper, where every notified
        organization confirmed).  Confirmed owners get a near-term
        remediation deadline unless they were about to fix it anyway.
        """
        records: List[NotificationRecord] = []
        for fqdn in fqdns:
            if fqdn in self._notified:
                continue
            self._notified.add(fqdn)
            asset = self._assets.get(fqdn)
            if asset is None:
                continue
            confirmed = any(
                r.active for r in self._ground_truth.records_for(fqdn)
            )
            due = asset.remediation_due
            if confirmed:
                low, high = self._response_delay_days
                response = at + timedelta(days=self._rng.randrange(low, high + 1))
                if due is None or response < due:
                    asset.remediation_due = response
                    due = response
            record = NotificationRecord(
                fqdn=fqdn, org_key=self._org_of.get(fqdn, ""),
                sent_at=at, confirmed=confirmed, remediation_due=due,
            )
            records.append(record)
            self.sent.append(record)
            self._events.record(
                at, "research.notified", fqdn,
                org=record.org_key, confirmed=confirmed,
            )
        return records

    # -- reporting -------------------------------------------------------------

    @property
    def notified_organizations(self) -> int:
        return len({r.org_key for r in self.sent if r.org_key})

    @property
    def confirmed_count(self) -> int:
        return sum(1 for r in self.sent if r.confirmed)

    @property
    def confirmation_rate(self) -> float:
        return self.confirmed_count / len(self.sent) if self.sent else 0.0
