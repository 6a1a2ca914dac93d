"""Sweep executors: the inline shard every run uses, and a serial oracle.

A :class:`SweepExecutor` runs one weekly sweep of the monitored-FQDN
list and reduces it to a :class:`SweepReport`.  :class:`ProcessExecutor`
is the pipeline's executor: it samples the whole list as one inline
shard (:func:`~repro.parallel.shard.run_shard`) and then records the
shard's samples into the snapshot store in input order, so the store,
the changed-pairs list and the quarantine list see the exact sequence a
plain serial loop would have produced.  :class:`SerialExecutor` is that
plain loop over the generic ``WeeklyMonitor.sample`` — no run uses it;
tests and benchmark scripts keep it as the oracle the fused shard path
must equal.

Under fault injection the shard samples through the generic
``WeeklyMonitor.sample`` (see :func:`~repro.parallel.shard.fast_path_eligible`),
so it replays the serial loop's storm exactly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.core.monitoring import (
    TRANSIENT_SAMPLE_STATUSES,
    ExtractionCache,
    SnapshotFeatures,
    WeeklyMonitor,
)
from repro.dns.names import Name
from repro.obs import OBS
from repro.parallel.shard import ShardResult, run_shard

ChangedPair = Tuple[SnapshotFeatures, Optional[SnapshotFeatures]]


def effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware).

    Nothing in the program branches on it; perfbench's host fingerprint
    records it.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass
class SweepReport:
    """One sweep's outcome: what changed, what failed, and its timing.

    ``changed``, ``failures`` and ``quarantined`` are in input order.
    Counters are not repeated here: they live on the monitor, its
    client and the extraction cache.
    """

    changed: List[ChangedPair] = field(default_factory=list)
    failures: List[Tuple[Name, str]] = field(default_factory=list)
    #: Dead letters: names whose sample raised this sweep, as
    #: (fqdn, "ExcType: message") pairs.  Distinct from ``failures``
    #: (retry-exhausted *samples*): a quarantined name produced no
    #: sample at all.
    quarantined: List[Tuple[Name, str]] = field(default_factory=list)
    #: "serial" (the oracle) or "inline" (one inline shard).
    mode: str = "serial"
    #: Elapsed time of the whole sweep.
    wall_seconds: float = 0.0
    #: CPU seconds the shard burned sampling, without the store apply
    #: (the serial oracle reports its elapsed time: cpu = wall).
    cpu_seconds: float = 0.0


class SweepExecutor:
    """Strategy interface: run one weekly sweep over ``fqdns``."""

    #: The most recent sweep's report (benchmarks and the profile
    #: report read timing fields off it).
    last_report: Optional[SweepReport] = None

    def sweep(
        self, monitor: WeeklyMonitor, fqdns: Sequence[Name], at: datetime
    ) -> SweepReport:
        raise NotImplementedError


class SerialExecutor(SweepExecutor):
    """The generic-path oracle: sample and record each name in turn."""

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


class ShardDispatch(NamedTuple):
    """What :func:`run_shards_supervised` hands back: the one shard."""

    results: List[ShardResult]


def run_shards_supervised(
    monitor: WeeklyMonitor,
    fqdns: Sequence[Name],
    at: datetime,
    cache: Optional[ExtractionCache],
    *,
    forked: bool = False,
) -> ShardDispatch:
    """Sample ``fqdns`` as one inline shard.

    :meth:`ProcessExecutor.sweep` calls this module global once per
    sweep.  Its name, its ``forked`` keyword (always ``False``: sweeps
    no longer fork) and its result's ``.results`` list are pinned by
    perfbench's layer wrappers, which time the dispatch by this name
    and count forked sweeps off the keyword, until those wrappers are
    re-pointed.
    """
    if forked:
        raise ValueError("weekly sweeps run inline; there is no forked sweep")
    return ShardDispatch([run_shard(monitor, fqdns, at, cache)])


class ProcessExecutor(SweepExecutor):
    """The pipeline's executor: each sweep is one inline fused shard.

    The shard samples every name (:func:`run_shards_supervised`) and
    :meth:`_apply` then records the samples, touch markers, failures and
    dead letters into the monitor in input order.

    The executor owns a persistent content-addressed
    :class:`ExtractionCache` it threads into every sweep, so week over
    week the (dominant) unchanged share of the web is never re-parsed.
    """

    def __init__(self, extraction_cache: Optional[ExtractionCache] = None):
        self.extraction_cache = (
            extraction_cache if extraction_cache is not None else ExtractionCache()
        )
        #: How the most recent sweep ran: always "inline" once it ran.
        self.last_mode: Optional[str] = None

    def sweep(
        self, monitor: WeeklyMonitor, fqdns: Sequence[Name], at: datetime
    ) -> SweepReport:
        started = time.perf_counter()
        dispatch = run_shards_supervised(
            monitor, fqdns, at, self.extraction_cache, forked=False
        )
        self.last_mode = "inline"
        report = self._apply(monitor, dispatch.results[0], at)
        report.mode = self.last_mode
        report.wall_seconds = time.perf_counter() - started
        self.last_report = report
        return report

    def _apply(
        self, monitor: WeeklyMonitor, result: ShardResult, at: datetime
    ) -> SweepReport:
        """Record one shard's results into the monitor, in input order."""
        ledger = (
            monitor.touch_ledger
            if monitor.incremental and monitor.journal is not None
            else None
        )
        report = SweepReport()
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
        report.failures.extend(result.failures)
        report.quarantined.extend(result.quarantined)
        if ledger is not None:
            # A failed or dead-lettered name produced no trusted sample
            # this sweep; any stale cleanliness proof must not carry it
            # past the next one either.
            for fqdn, _reason in result.failures + result.quarantined:
                ledger.invalidate(fqdn)
            # The world is quiescent during a sweep, so the journal's
            # position now equals its position when the shard computed
            # its dirty set: every surviving entry's dependencies are
            # unchanged as of this cursor.
            ledger.cursor = monitor.journal.cursor()
        report.cpu_seconds = result.cpu_seconds
        if OBS.enabled:
            OBS.series.record_shard(
                0, result.size, result.cpu_seconds, result.wall_seconds,
                result.peak_rss_kb,
            )
        return report
