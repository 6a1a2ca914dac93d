"""End-to-end scenario driver.

``run_scenario`` builds one simulated Internet, populates it, and runs
the paper's three-year loop week by week on the stage-based
:class:`~repro.pipeline.engine.PipelineEngine`: the legitimate world
evolves, attacker campaigns hunt and hijack, users browse (and get
their cookies stolen), the collector keeps expanding the monitored set,
the monitor samples every monitored FQDN, and the detector
turns changes into abuse records.  ``build_scenario`` exposes the
composed-but-unrun engine for callers that want to step, checkpoint or
resume the run themselves.  The returned :class:`ScenarioResult`
carries every component, so analyses can read both the *measured* view
(the detector's dataset) and the *ground-truth* view (the hijack log) —
enabling the precision/recall scoring the paper itself could not do.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import List, Optional

from repro.attacker.campaign import CampaignOrchestrator
from repro.attacker.groups import AttackerGroup, make_default_groups
from repro.attacker.monetization import MonetizationEcosystem
from repro.core.collection import FqdnCollector
from repro.core.detection import AbuseDataset, AbuseDetector, DetectorConfig
from repro.core.malware_analysis import BinaryHarvester
from repro.core.notifications import NotificationCampaign
from repro.core.monitoring import MonitorConfig, WeeklyMonitor
from repro.core.stages import (
    ChangeDetectStage,
    CollectorRefreshStage,
    DetectStage,
    HarvestStage,
    MonitorSweepStage,
    NotifyStage,
    OrchestratorStage,
    UsersStage,
    WorldStage,
    candidate_names,
)
from repro.faults.plan import FaultConfig, FaultPlan
from repro.faults.retry import CircuitBreaker
from repro.parallel.executor import ProcessExecutor, SweepExecutor
from repro.pipeline.context import QuarantineRecord
from repro.pipeline.engine import PipelineEngine
from repro.pipeline.store import CheckpointStore
from repro.pipeline.metrics import PipelineMetrics
from repro.sim.clock import DEFAULT_START, SimClock
from repro.sim.rng import RngStreams
from repro.world.ground_truth import GroundTruthLog
from repro.world.internet import Internet
from repro.world.lifecycle import LifecycleConfig, WorldEngine
from repro.world.organizations import Organization
from repro.world.population import PopulationBuilder, PopulationConfig
from repro.world.users import UserPopulation


@dataclass
class ScenarioConfig:
    """All the knobs of one simulated world run."""

    seed: int = 42
    weeks: int = 156
    start: datetime = DEFAULT_START
    population: PopulationConfig = field(default_factory=PopulationConfig)
    lifecycle: LifecycleConfig = field(default_factory=LifecycleConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    attacker_groups: int = 14
    syndicate_cells: int = 4
    users_per_org: int = 2
    user_org_share: float = 0.35
    edge_icmp_drop_rate: float = 0.28
    #: Countermeasure knobs (Section 7 recommendations).
    reregistration_cooldown: timedelta = timedelta(0)
    randomize_names: bool = False
    #: Run the notification campaign: newly detected abuses trigger
    #: victim notifications, accelerating remediation (Section 1).
    notify_owners: bool = False
    #: Deterministic fault injection (chaos runs); quiescent by default.
    faults: FaultConfig = field(default_factory=FaultConfig)

    @classmethod
    def tiny(cls, seed: int = 42) -> "ScenarioConfig":
        """A seconds-fast preset for unit/integration tests."""
        return cls(
            seed=seed,
            weeks=30,
            population=PopulationConfig(
                n_enterprises=16, n_universities=6, n_government=4, n_popular=12
            ),
            lifecycle=LifecycleConfig(weekly_release_rate=0.020),
            attacker_groups=6,
            syndicate_cells=2,
            users_per_org=1,
            user_org_share=0.5,
        )

    @classmethod
    def small(cls, seed: int = 42) -> "ScenarioConfig":
        """A laptop-fast preset for tests: ~1 simulated year, small world."""
        return cls(
            seed=seed,
            weeks=52,
            population=PopulationConfig(
                n_enterprises=40, n_universities=12, n_government=10, n_popular=30
            ),
            lifecycle=LifecycleConfig(weekly_release_rate=0.010),
            attacker_groups=8,
            syndicate_cells=3,
            users_per_org=1,
        )


@dataclass
class ScenarioResult:
    """Everything one finished run produced."""

    config: ScenarioConfig
    internet: Internet
    organizations: List[Organization]
    ground_truth: GroundTruthLog
    groups: List[AttackerGroup]
    orchestrator: CampaignOrchestrator
    engine: WorldEngine
    collector: FqdnCollector
    monitor: WeeklyMonitor
    detector: AbuseDetector
    users: UserPopulation
    harvester: Optional[BinaryHarvester] = None
    notifications: Optional["NotificationCampaign"] = None
    monetization: Optional[MonetizationEcosystem] = None
    weeks_run: int = 0
    #: Per-stage instrumentation of the run (set by ``run_scenario``).
    metrics: Optional[PipelineMetrics] = None
    #: The fault plan driving chaos runs (``None`` = healthy Internet).
    fault_plan: Optional[FaultPlan] = None
    #: Dead-letter log of quarantined FQDNs / failed stage ticks.
    dead_letters: List[QuarantineRecord] = field(default_factory=list)
    #: The sweep executor the monitor stage ran on.
    executor: Optional[SweepExecutor] = None

    @property
    def dataset(self) -> AbuseDataset:
        """The detector's abuse dataset (the paper's measured output)."""
        return self.detector.dataset

    @property
    def end(self) -> datetime:
        return self.internet.clock.now


def build_scenario(config: Optional[ScenarioConfig] = None) -> PipelineEngine:
    """Construct the world and compose the weekly pipeline, unrun.

    The returned engine's ``payload`` is the :class:`ScenarioResult`;
    ``engine.run()`` executes all configured weeks, ``engine.step()``
    executes one, and ``engine.checkpoint()`` snapshots the run for a
    later :meth:`~repro.pipeline.engine.PipelineEngine.restore`.
    """
    config = config or ScenarioConfig()
    streams = RngStreams(config.seed)
    clock = SimClock(config.start, config.start + timedelta(weeks=config.weeks))
    fault_plan = None
    breaker = None
    if config.faults.enabled:
        # One seed replays the whole storm: the fault streams derive
        # from the scenario seed unless an independent fault seed pins
        # the weather while the world varies.
        fault_streams = (
            RngStreams(config.faults.fault_seed)
            if config.faults.fault_seed is not None
            else streams.fork("faults")
        )
        fault_plan = FaultPlan(config.faults, fault_streams)
        # The breaker guards the *data plane*: a plan whose every rate
        # is zero draws nothing, so it leaves the breaker out and the
        # fused sampling path eligible.
        if config.faults.any_active:
            breaker = CircuitBreaker()
    # The world is built on a healthy Internet — chaos begins only once
    # the weekly pipeline starts ticking.  This keeps the bootstrap
    # (population, initial collector ingest) identical between chaos
    # and fault-free runs of the same world seed.
    build_guard = fault_plan.suppressed() if fault_plan is not None else nullcontext()
    with build_guard:
        internet = Internet(
            streams,
            clock,
            edge_icmp_drop_rate=config.edge_icmp_drop_rate,
            reregistration_cooldown=config.reregistration_cooldown,
            randomize_names=config.randomize_names,
            fault_plan=fault_plan,
            breaker=breaker,
        )
        builder = PopulationBuilder(internet)
        organizations = builder.build(config.population, clock.now)
        ground_truth = GroundTruthLog()
        engine = WorldEngine(
            internet, organizations, builder, config.population, ground_truth,
            config.lifecycle,
        )
        groups = make_default_groups(
            streams, internet.shortener, config.attacker_groups,
            config.syndicate_cells,
        )
        orchestrator = CampaignOrchestrator(
            internet, groups, ground_truth, organizations
        )
        monetization = MonetizationEcosystem(streams.get("monetization"))
        users = UserPopulation(
            internet.client, streams.get("users"), monetization=monetization
        )
        user_rng = streams.get("user-assignment")
        for org in organizations:
            if user_rng.random() < config.user_org_share:
                users.add_users_for_org(org, config.users_per_org, clock.now)

        collector = FqdnCollector(
            internet.resolver, internet.catalog.suffixes,
            internet.catalog.cloud_ips,
        )
        collector.ingest(candidate_names(internet, organizations), clock.now)
    # The journal makes every healthy sweep churn-proportional: the
    # monitor's touch ledger extends proven-clean names in bulk.
    monitor = WeeklyMonitor(
        internet.client, config=config.monitor, journal=internet.revisions
    )
    executor = ProcessExecutor()
    detector = AbuseDetector(monitor.store, config.detector, whois=internet.whois)

    harvester = BinaryHarvester(internet.client, internet.virustotal)
    notifications = (
        NotificationCampaign(
            organizations, ground_truth, internet.events,
            streams.get("notifications"),
        )
        if config.notify_owners
        else None
    )
    result = ScenarioResult(
        config=config, internet=internet, organizations=organizations,
        ground_truth=ground_truth, groups=groups, orchestrator=orchestrator,
        engine=engine, collector=collector, monitor=monitor, detector=detector,
        users=users, harvester=harvester, notifications=notifications,
        monetization=monetization, fault_plan=fault_plan, executor=executor,
    )

    stages = [
        WorldStage(engine),
        OrchestratorStage(orchestrator),
        UsersStage(users),
        CollectorRefreshStage(collector, internet, organizations),
        MonitorSweepStage(monitor, collector, executor=executor),
        ChangeDetectStage(),
        DetectStage(detector),
        NotifyStage(notifications),
        HarvestStage(harvester, detector, monitor),
    ]
    return PipelineEngine(stages, clock, payload=result)


def run_scenario(
    config: Optional[ScenarioConfig] = None,
    checkpoint_store: Optional[CheckpointStore] = None,
    checkpoint_every: int = 4,
    resume: bool = False,
) -> ScenarioResult:
    """Run one full world from construction to the final week.

    With a ``checkpoint_store`` the engine durably snapshots itself
    every ``checkpoint_every`` weeks; ``resume=True`` restores the
    newest *intact* checkpoint from the store (torn or corrupt files
    are skipped — see :attr:`CheckpointStore.last_recovery`) and runs
    the remaining weeks, falling back to a fresh build when the store
    holds nothing usable.  A resumed run finishes with the same final
    state the uninterrupted run would have had: the checkpoint carries
    the entire engine, world and RNG streams.
    """
    pipeline: Optional[PipelineEngine] = None
    if resume:
        if checkpoint_store is None:
            raise ValueError("resume=True requires a checkpoint_store")
        checkpoint = checkpoint_store.load_latest()
        if checkpoint is not None:
            pipeline = PipelineEngine.restore(checkpoint)
    if pipeline is None:
        pipeline = build_scenario(config)
    if checkpoint_store is not None:
        pipeline.run(
            checkpoint_every=checkpoint_every,
            on_checkpoint=checkpoint_store.save,
        )
    else:
        pipeline.run()
    result: ScenarioResult = pipeline.payload
    result.weeks_run = pipeline.week_index
    result.metrics = pipeline.metrics
    result.dead_letters = pipeline.dead_letters
    return result
