"""Sweep executors: the sharded one every run uses, and a serial oracle.

A :class:`SweepExecutor` runs one weekly sweep of the monitored-FQDN
list and reduces it to a :class:`SweepReport`.  :class:`ProcessExecutor`
is the pipeline's executor: it shards the list into contiguous slices,
runs each shard's sample+reduce (inline at one worker, in a forked
worker against the copy-on-write world otherwise), and merges the
results **in shard order**: the snapshot store, the changed-pairs list,
the quarantine list and every counter see the exact same sequence a
plain serial loop would have produced, so a fault-free scenario exports
byte-identical digests for any worker count.  :class:`SerialExecutor`
is that plain loop over the generic ``WeeklyMonitor.sample`` — no run
uses it; tests and benchmark scripts keep it as the oracle the fused
shard path must equal.

Under fault injection a shard samples through the generic
``WeeklyMonitor.sample`` (see :func:`~repro.parallel.shard.fast_path_eligible`),
so one inline shard replays the serial loop's storm exactly.  A
multi-shard chaos run is still fully deterministic — the same seed and
worker count always replay the same storm — but not byte-identical to
the one-shard run: fault streams are sequential, so sharding
re-partitions the draw sequence, and breaker failure streaks
accumulate shard-locally.  See the determinism-under-sharding contract
in the README.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import List, Optional, Sequence, Tuple

from repro.core.monitoring import (
    TRANSIENT_SAMPLE_STATUSES,
    ExtractionCache,
    SnapshotFeatures,
    WeeklyMonitor,
)
from repro.dns.names import Name
from repro.obs import OBS
from repro.parallel.shard import (
    ShardResult,
    add_counters,
    counter_snapshot,
    partition,
    write_counters,
)
from repro.parallel.supervisor import (
    DeadLetter,
    SupervisorConfig,
    absorb,
    fork_available,
    run_shards_supervised,
)

ChangedPair = Tuple[SnapshotFeatures, Optional[SnapshotFeatures]]


def effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass
class SweepReport:
    """One sweep's outcome: what changed, what failed, and its timing.

    ``changed``, ``failures`` and ``quarantined`` are in input order.
    Counters are not repeated here: they live on the monitor, its
    client and the extraction cache, where forked shards' deltas are
    replayed.
    """

    changed: List[ChangedPair] = field(default_factory=list)
    failures: List[Tuple[Name, str]] = field(default_factory=list)
    #: Names the supervisor's poison bisection quarantined this sweep,
    #: as (fqdn, reason) pairs in shard order.  Distinct from
    #: ``failures`` (retry-exhausted *samples*): a quarantined name
    #: never produced a sample at all — its worker died every attempt.
    quarantined: List[Tuple[Name, str]] = field(default_factory=list)
    #: "serial", or how a sharded sweep ran: "fork" or "inline".
    mode: str = "serial"
    #: Elapsed time of the whole sweep.
    wall_seconds: float = 0.0
    #: Sampling time summed over shards: concurrent shards overlap, so
    #: this can exceed ``wall_seconds`` (a serial sweep reports both
    #: equal).
    cpu_seconds: float = 0.0


class SweepExecutor:
    """Strategy interface: run one weekly sweep over ``fqdns``."""

    workers: int = 1
    #: The most recent sweep's report (benchmarks and the profile
    #: report read timing fields off it).
    last_report: Optional[SweepReport] = None

    def sweep(
        self, monitor: WeeklyMonitor, fqdns: Sequence[Name], at: datetime
    ) -> SweepReport:
        raise NotImplementedError


class SerialExecutor(SweepExecutor):
    """The generic-path oracle: sample and record each name in turn."""

    workers = 1

    def sweep(
        self, monitor: WeeklyMonitor, fqdns: Sequence[Name], at: datetime
    ) -> SweepReport:
        started = time.perf_counter()
        report = SweepReport()
        for fqdn in fqdns:
            features = monitor.sample(fqdn, at)
            if features.fetch_status in TRANSIENT_SAMPLE_STATUSES:
                # Retries exhausted and the state is still unknown: keep
                # the last trusted state instead of recording a phantom
                # change, and hand the FQDN to quarantine.
                report.failures.append((fqdn, features.fetch_status))
                continue
            is_new, previous = monitor.store.record(features)
            if is_new:
                report.changed.append((features, previous))
        report.wall_seconds = report.cpu_seconds = time.perf_counter() - started
        self.last_report = report
        return report


class ProcessExecutor(SweepExecutor):
    """Sharded sweep across forked workers, merged in shard order.

    The monitored list is cut into at most ``workers`` contiguous
    slices; each runs in a forked child against the copy-on-write world
    with shard-local client/store effects, and the parent replays every
    shard's results — store records, quarantines, counters, passive-DNS
    observations, new extraction-cache entries — in shard order.  With
    one worker (or where ``os.fork`` is unavailable) the same shard
    loop runs inline, fork-free, with identical results.

    ``use_fork=None`` (the default) auto-detects: forking pays only
    when more than one CPU is actually available — on a single-CPU box
    copy-on-write page faults on the big world heap cost more per sweep
    than sharding saves, so the shards run inline instead.  The merge
    path is identical either way, so the choice never affects results.

    The executor owns a persistent content-addressed
    :class:`ExtractionCache` that workers inherit through the fork and
    extend back through the merge, so week over week the (dominant)
    unchanged share of the web is never re-parsed.
    """

    def __init__(
        self,
        workers: int = 2,
        extraction_cache: Optional[ExtractionCache] = None,
        use_fork: Optional[bool] = None,
        supervisor: Optional[SupervisorConfig] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.extraction_cache = (
            extraction_cache if extraction_cache is not None else ExtractionCache()
        )
        self.use_fork = use_fork
        #: Failure-handling knobs; every sweep runs under the supervisor.
        self.supervisor = supervisor if supervisor is not None else SupervisorConfig()
        #: "fork" or "inline" — how the most recent sweep actually ran.
        self.last_mode: Optional[str] = None

    def sweep(
        self, monitor: WeeklyMonitor, fqdns: Sequence[Name], at: datetime
    ) -> SweepReport:
        shards = partition(fqdns, self.workers)
        want_fork = (
            self.use_fork if self.use_fork is not None else effective_cpus() > 1
        )
        forked = len(shards) > 1 and want_fork and fork_available()
        started = time.perf_counter()
        outcome = run_shards_supervised(
            monitor, shards, at, self.extraction_cache,
            config=self.supervisor, forked=forked,
        )
        self.last_mode = "fork" if forked else "inline"
        report = self._apply(monitor, outcome.results, forked, at, outcome.quarantined)
        report.mode = self.last_mode
        report.wall_seconds = time.perf_counter() - started
        self.last_report = report
        return report

    def _apply(
        self,
        monitor: WeeklyMonitor,
        results: List[ShardResult],
        forked: bool,
        at: datetime,
        quarantined: Optional[List[DeadLetter]] = None,
    ) -> SweepReport:
        """Replay shard results into the parent, in shard order."""
        cache = self.extraction_cache
        resolver = monitor.client.resolver
        ledger = (
            monitor.touch_ledger
            if monitor.incremental and monitor.journal is not None
            else None
        )
        report = SweepReport()
        for result in results:
            if forked:
                # The child's mutations died with it: apply the deltas.
                write_counters(
                    monitor, cache,
                    add_counters(counter_snapshot(monitor, cache), result.counters),
                )
                if resolver.passive_dns is not None:
                    for record, when in result.observations:
                        resolver.passive_dns.observe(record, when)
                cache.html.update(result.new_html)
                cache.sitemap.update(result.new_sitemap)
                absorb(result.metrics, result.trace_events)
            for entry in result.sampled:
                if isinstance(entry, SnapshotFeatures):
                    is_new, previous = monitor.store.record(entry)
                    if is_new:
                        report.changed.append((entry, previous))
                    if ledger is not None:
                        # A full sample supersedes any ledger proof: the
                        # name was dirty (or unproven), so the old entry
                        # must not survive into the next sweep.
                        ledger.invalidate(entry.fqdn)
                else:
                    # Touch marker: the shard proved the state unchanged.
                    monitor.store.touch(entry, at)
                    if ledger is not None:
                        fresh = result.ledger_entries.get(entry)
                        if fresh is not None:
                            ledger.put(entry, fresh)
            if ledger is not None:
                for fqdn, _status in result.failures:
                    ledger.invalidate(fqdn)
            report.failures.extend(result.failures)
            report.cpu_seconds += result.wall_seconds
            if OBS.enabled:
                OBS.series.record_shard(
                    result.index, result.size,
                    result.cpu_seconds or result.wall_seconds,
                    result.wall_seconds,
                    result.peak_rss_kb,
                )
        for letter in quarantined or ():
            report.quarantined.append((letter.fqdn, letter.reason))
            if ledger is not None:
                # A quarantined name produced no sample this sweep; any
                # stale cleanliness proof must not carry it past the
                # next one either.
                ledger.invalidate(letter.fqdn)
        if ledger is not None:
            # The world is quiescent during a sweep, so the journal's
            # position now equals its position when the shards computed
            # their dirty sets: every surviving entry's dependencies are
            # unchanged as of this cursor.
            ledger.cursor = monitor.journal.cursor()
        return report
