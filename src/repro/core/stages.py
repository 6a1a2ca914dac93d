"""The scenario's weekly loop as pipeline stages.

Each class here is one component of the paper's weekly pipeline,
expressed as a :class:`~repro.pipeline.stage.Stage` so the engine can
order, time and checkpoint them.  ``build_stages``
composes the canonical nine-stage pipeline that ``run_scenario`` runs:

``world → orchestrator → users → collector-refresh → monitor-sweep →
change-detect → detect → notify → harvest``

Inter-stage data flows through the :class:`WeekContext` output board:
the monitor publishes ``changed_pairs``, change detection turns them
into ``changes``, the detector publishes ``newly_flagged`` for the
notification stage.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.attacker.campaign import CampaignOrchestrator
from repro.core.changes import ChangeEvent, detect_changes
from repro.core.collection import FqdnCollector
from repro.core.detection import AbuseDetector
from repro.core.malware_analysis import BinaryHarvester
from repro.core.monitoring import WeeklyMonitor
from repro.core.notifications import NotificationCampaign
from repro.dns.names import Name
from repro.parallel.executor import ProcessExecutor, SweepExecutor
from repro.pipeline.context import WeekContext
from repro.pipeline.stage import Stage
from repro.world.internet import Internet
from repro.world.lifecycle import WorldEngine
from repro.world.organizations import Organization
from repro.world.users import UserPopulation

#: Context keys the stages publish (importable so tests/compositions
#: reference the contract, not string literals).
CHANGED_PAIRS = "changed_pairs"
CHANGES = "changes"
NEWLY_FLAGGED = "newly_flagged"


class WorldStage(Stage):
    """Legitimate world churn: releases, remediations, redesigns."""

    name = "world"

    def __init__(self, engine: WorldEngine):
        self._engine = engine

    def tick(self, ctx: WeekContext) -> Optional[int]:
        self._engine.step(ctx.at)
        return None


class OrchestratorStage(Stage):
    """Attacker campaigns scan, hijack and deploy content."""

    name = "orchestrator"

    def __init__(self, orchestrator: CampaignOrchestrator):
        self._orchestrator = orchestrator

    def tick(self, ctx: WeekContext) -> Optional[int]:
        return self._orchestrator.step(ctx.at)


class UsersStage(Stage):
    """Simulated users browse (and leak cookies to hijacked pages)."""

    name = "users"

    def __init__(self, users: UserPopulation, visits_per_user: int):
        self._users = users
        self._visits = visits_per_user

    def tick(self, ctx: WeekContext) -> Optional[int]:
        return self._users.weekly_browse(ctx.at, self._visits)


def candidate_names(
    internet: Internet, organizations: Sequence[Organization]
) -> List[Name]:
    """The candidate feed: apex domains plus passive-DNS subdomains.

    Mirrors Section 3.1: a seed list of high-profile domains, expanded
    to all subdomains observed in passive DNS.
    """
    names: List[Name] = []
    for org in organizations:
        names.append(org.domain)
        names.extend(internet.passive_dns.subdomains_of(org.domain))
    return names


class CollectorRefreshStage(Stage):
    """Periodic re-ingest of the passive-DNS candidate feed (§3.1)."""

    name = "collector-refresh"

    def __init__(
        self,
        collector: FqdnCollector,
        internet: Internet,
        organizations: Sequence[Organization],
        refresh_weeks: int,
    ):
        self._collector = collector
        self._internet = internet
        # Shared reference on purpose: the world engine grows this list
        # as the simulation runs, and the feed must see new orgs.
        self._organizations = organizations
        self._refresh_weeks = max(1, refresh_weeks)

    def tick(self, ctx: WeekContext) -> Optional[int]:
        if ctx.week_index % self._refresh_weeks != 0:
            return 0
        return self._collector.ingest(
            candidate_names(self._internet, self._organizations), ctx.at
        )


class MonitorSweepStage(Stage):
    """Weekly sampling of every monitored FQDN, via a sweep executor.

    The sweep itself is delegated to a
    :class:`~repro.parallel.executor.SweepExecutor` — by default the
    one inline shard of :class:`~repro.parallel.executor.ProcessExecutor`.
    FQDNs whose final sample still ended in a transient failure after
    the monitor's retry budget, and FQDNs whose sample raised, are
    dead-lettered onto the context's quarantine instead of polluting
    the state store — the week's sweep degrades to the reachable subset
    rather than aborting.
    """

    name = "monitor-sweep"
    provides = (CHANGED_PAIRS,)

    def __init__(
        self,
        monitor: WeeklyMonitor,
        collector: FqdnCollector,
        executor: Optional[SweepExecutor] = None,
    ):
        self._monitor = monitor
        self._collector = collector
        self._executor = executor if executor is not None else ProcessExecutor()

    def tick(self, ctx: WeekContext) -> Optional[int]:
        fqdns = self._collector.monitored_sorted
        report = self._executor.sweep(self._monitor, fqdns, ctx.at)
        for fqdn, status in report.failures:
            ctx.quarantine_item(fqdn, f"retries exhausted ({status})")
        for fqdn, reason in report.quarantined:
            # The name's sample raised (attacker-served bytes can be
            # anything), so it produced no sample this week.
            ctx.quarantine_item(fqdn, f"sample raised: {reason}")
        ctx.put(CHANGED_PAIRS, report.changed)
        return len(fqdns)


class ChangeDetectStage(Stage):
    """Classify each new content state against its predecessor (§3.2)."""

    name = "change-detect"
    requires = (CHANGED_PAIRS,)
    provides = (CHANGES,)

    def tick(self, ctx: WeekContext) -> Optional[int]:
        changes: List[ChangeEvent] = [
            detect_changes(previous, current)
            for current, previous in ctx.get(CHANGED_PAIRS)
        ]
        ctx.put(CHANGES, changes)
        return len(changes)


class DetectStage(Stage):
    """Signature extraction/matching over this week's changes (§3.3)."""

    name = "detect"
    requires = (CHANGES,)
    provides = (NEWLY_FLAGGED,)

    def __init__(self, detector: AbuseDetector):
        self._detector = detector

    def tick(self, ctx: WeekContext) -> Optional[int]:
        newly_flagged = self._detector.process_week(ctx.get(CHANGES), ctx.at)
        ctx.put(NEWLY_FLAGGED, newly_flagged)
        return len(newly_flagged)


class NotifyStage(Stage):
    """Victim notification for newly flagged abuses (§1, optional)."""

    name = "notify"
    requires = (NEWLY_FLAGGED,)

    def __init__(self, notifications: Optional[NotificationCampaign]):
        self._notifications = notifications

    def tick(self, ctx: WeekContext) -> Optional[int]:
        if self._notifications is None:
            return 0
        newly_flagged = ctx.get(NEWLY_FLAGGED)
        if not newly_flagged:
            return 0
        return len(self._notifications.notify(newly_flagged, ctx.at))


class HarvestStage(Stage):
    """Monthly binary harvesting from abused pages (§5.4)."""

    name = "harvest"

    def __init__(
        self,
        harvester: BinaryHarvester,
        detector: AbuseDetector,
        monitor: WeeklyMonitor,
        every_weeks: int = 4,
    ):
        self._harvester = harvester
        self._detector = detector
        self._monitor = monitor
        self._every_weeks = max(1, every_weeks)

    def tick(self, ctx: WeekContext) -> Optional[int]:
        if ctx.week_index % self._every_weeks != 0:
            return 0
        return self._harvester.harvest(
            self._detector.dataset, self._monitor.store, ctx.at
        )
