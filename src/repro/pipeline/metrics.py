"""Per-stage instrumentation for the pipeline engine.

Every stage tick is timed (wall and CPU) and counted; stages
additionally report an *items processed* count (FQDNs swept, changes
detected, abuses flagged) so throughput — not just wall time — is
visible per stage.  This is the run's one store of stage cost: it
renders as the table ``python -m repro pipeline`` prints, feeds the
``profile`` report's resource table and ``--metrics-json``'s
``resources.stages`` rows, and is what
``benchmarks/bench_pipeline_micro.py`` consumes instead of ad-hoc
timers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass
class StageMetrics:
    """Accumulated counters for one stage across the run."""

    name: str
    ticks: int = 0
    wall_time: float = 0.0
    #: Process CPU seconds, charged wherever ``wall_time`` is.
    cpu_time: float = 0.0
    items_processed: int = 0
    setup_time: float = 0.0
    finish_time: float = 0.0
    #: Resilience counters: tick re-runs after an exception, ticks that
    #: exhausted retries and were dead-lettered, ticks skipped because
    #: an upstream stage failed, and items quarantined by the stage.
    retries: int = 0
    failures: int = 0
    skips: int = 0
    quarantined: int = 0

    @property
    def total_time(self) -> float:
        return self.setup_time + self.wall_time + self.finish_time

    @property
    def mean_tick_ms(self) -> float:
        return (self.wall_time / self.ticks) * 1000.0 if self.ticks else 0.0

    @property
    def items_per_second(self) -> float:
        return self.items_processed / self.wall_time if self.wall_time > 0 else 0.0


class PipelineMetrics:
    """Registry of per-stage counters for one engine run."""

    def __init__(self) -> None:
        self._stages: Dict[str, StageMetrics] = {}

    def stage(self, name: str) -> StageMetrics:
        """The metrics row for ``name``, created on first use."""
        row = self._stages.get(name)
        if row is None:
            row = StageMetrics(name=name)
            self._stages[name] = row
        return row

    def record_tick(
        self, name: str, seconds: float, items: int = 0, cpu: float = 0.0
    ) -> None:
        row = self.stage(name)
        row.ticks += 1
        row.wall_time += seconds
        row.cpu_time += cpu
        row.items_processed += items

    def record_setup(self, name: str, seconds: float) -> None:
        self.stage(name).setup_time += seconds

    def record_finish(self, name: str, seconds: float) -> None:
        self.stage(name).finish_time += seconds

    def record_retry(self, name: str, seconds: float = 0.0, cpu: float = 0.0) -> None:
        """A tick attempt failed and will be re-run."""
        row = self.stage(name)
        row.retries += 1
        row.wall_time += seconds
        row.cpu_time += cpu

    def record_failure(self, name: str, seconds: float = 0.0, cpu: float = 0.0) -> None:
        """A tick exhausted its retries and was dead-lettered."""
        row = self.stage(name)
        row.failures += 1
        row.wall_time += seconds
        row.cpu_time += cpu

    def record_skip(self, name: str) -> None:
        """A tick was skipped because an upstream dependency failed."""
        self.stage(name).skips += 1

    def record_quarantine(self, name: str, items: int = 1) -> None:
        """The stage dead-lettered ``items`` work items this week."""
        self.stage(name).quarantined += items

    def stages(self) -> List[StageMetrics]:
        """Rows in registration (= pipeline) order."""
        return list(self._stages.values())

    def total_wall_time(self) -> float:
        return sum(row.total_time for row in self._stages.values())

    def rows(self) -> List[Tuple[str, int, str, str, int, str, int, int, int]]:
        """Render-ready rows: (stage, ticks, wall s, mean tick ms, items,
        items/s, retries, failures+skips, quarantined)."""
        return [
            (
                row.name,
                row.ticks,
                f"{row.total_time:.3f}",
                f"{row.mean_tick_ms:.2f}",
                row.items_processed,
                f"{row.items_per_second:,.0f}" if row.items_per_second else "-",
                row.retries,
                row.failures + row.skips,
                row.quarantined,
            )
            for row in self._stages.values()
        ]
