"""Per-FQDN incident timelines.

Reconstructs the full chronology of one hijack from the externally
visible traces — cloud provisioning/release events, the dangling
window, the takeover, certificate issuance, detection, notification and
remediation — the narrative a forensic write-up (or the paper's Figure
16 bars) tells about each victim.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import List

from repro.core.scenario import ScenarioResult
from repro.dns.names import Name
from repro.sim.events import EventLog


@dataclass(frozen=True)
class TimelineEntry:
    """One step in a hijack's life."""

    at: datetime
    stage: str
    detail: str = ""


@dataclass
class IncidentTimeline:
    """The ordered chronology of one abused FQDN."""

    fqdn: Name
    entries: List[TimelineEntry]

    @property
    def stages(self) -> List[str]:
        return [entry.stage for entry in self.entries]

    def render(self) -> str:
        """A human-readable chronology."""
        lines = [f"Incident timeline — {self.fqdn}"]
        for entry in self.entries:
            detail = f"  ({entry.detail})" if entry.detail else ""
            lines.append(f"  {entry.at.date()}  {entry.stage}{detail}")
        return "\n".join(lines)


def build_timeline(result: ScenarioResult, fqdn: Name) -> IncidentTimeline:
    """Assemble the chronology of one FQDN from all recorded traces."""
    entries: List[TimelineEntry] = []
    events: EventLog = result.internet.events

    for event in events.query(kind="world.dangling", subject=fqdn):
        entries.append(TimelineEntry(event.at, "record-dangled",
                                     f"service {event.data.get('service', '?')}"))
    for event in events.query(kind="attacker.takeover"):
        if fqdn == event.subject or fqdn in event.data.get("victims", ()):
            entries.append(TimelineEntry(event.at, "taken-over",
                                         f"by {event.data.get('group', '?')}"))
    for event in events.query(kind="pki.issued", subject=fqdn):
        owner = str(event.data.get("owner", ""))
        stage = (
            "fraudulent-certificate" if owner.startswith("attacker:")
            else "certificate-issued"
        )
        entries.append(TimelineEntry(event.at, stage, event.data.get("issuer", "")))
    record = result.dataset.get(fqdn)
    if record is not None:
        entries.append(TimelineEntry(record.first_detected, "detected",
                                     "+".join(sorted(record.simplest_indicators()))))
        for episode in record.episodes:
            if episode.ended_at is not None:
                entries.append(TimelineEntry(episode.ended_at, "abuse-ended"))
    for event in events.query(kind="research.notified", subject=fqdn):
        entries.append(TimelineEntry(event.at, "owner-notified",
                                     "confirmed" if event.data.get("confirmed") else ""))
    for event in events.query(kind="world.remediated", subject=fqdn):
        entries.append(TimelineEntry(event.at, "remediated"))
    entries.sort(key=lambda e: (e.at, e.stage))
    return IncidentTimeline(fqdn=fqdn, entries=entries)
