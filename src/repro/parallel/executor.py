"""Sweep executors: the inline shard every run uses, and a serial oracle.

A :class:`SweepExecutor` runs one weekly sweep of the monitored-FQDN
list and reduces it to a :class:`SweepReport`.  :class:`ProcessExecutor`
is the pipeline's executor: it sweeps the whole list as one inline
shard (:func:`~repro.parallel.shard.run_shard`), which records each
name into the snapshot store before it samples the next, so the
store, the changed-pairs list and the quarantine list see the exact
sequence a plain serial loop produces — except that names whose touch
ledger proof stands are extended in bulk rather than sampled.
:class:`SerialExecutor` is that plain loop over the generic
``WeeklyMonitor.sample``, a full sweep of every name — no run uses it;
tests and benchmark scripts keep it as the oracle the ledger sweep must
equal.

Under fault injection the shard samples through the generic
``WeeklyMonitor.sample`` (see :func:`~repro.parallel.shard.fast_path_eligible`),
so it replays the serial loop's storm exactly.
"""

from __future__ import annotations

import os
import time
from datetime import datetime
from typing import List, NamedTuple, Optional, Sequence

from repro.core.monitoring import (
    TRANSIENT_SAMPLE_STATUSES,
    ExtractionCache,
    WeeklyMonitor,
)
from repro.dns.names import Name
from repro.parallel.shard import SweepReport, run_shard


def effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware).

    Nothing in the program branches on it; perfbench's host fingerprint
    records it.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


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
        # Every name is sampled: no ledger proof may stand through it.
        monitor.touch_ledger.clear()
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
    """What :func:`run_shards_supervised` hands back: the one shard's
    :class:`SweepReport`."""

    results: List[SweepReport]


def run_shards_supervised(
    monitor: WeeklyMonitor,
    fqdns: Sequence[Name],
    at: datetime,
    cache: Optional[ExtractionCache],
    *,
    forked: bool = False,
) -> ShardDispatch:
    """Sweep ``fqdns`` as one inline shard.

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

    The shard samples every name that does not stand in the monitor's
    touch ledger and records each one as it goes
    (:func:`run_shards_supervised`); :meth:`_apply` then closes the
    sweep's ledger.

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
        report = dispatch.results[0]
        self._apply(monitor, report)
        report.wall_seconds = time.perf_counter() - started
        self.last_report = report
        return report

    def _apply(self, monitor: WeeklyMonitor, report: SweepReport) -> None:
        """Close the sweep's touch ledger.

        A failed or dead-lettered name produced no trusted sample this
        sweep, so any stale proof must not carry it further.  Those
        proofs go only now, after the loop installed every fresh one:
        while it ran they held their LRU slots, which fixes which names
        a small ``touch_ledger_cap`` evicts.
        """
        if monitor.journal is None:
            return
        ledger = monitor.touch_ledger
        for fqdn, _reason in report.failures + report.quarantined:
            ledger.invalidate(fqdn)
        # The world is quiescent during a sweep, so the journal's
        # position now equals its position when the shard computed its
        # dirty set: every surviving entry's dependencies are unchanged
        # as of this cursor.
        monitor.ledger_unsound += ledger.finish_sweep(monitor.journal.cursor())
