"""Figure 1: monitored vs hijacked cloud-hosted domains over time."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.collection import FqdnCollector
from repro.core.detection import AbuseDataset


@dataclass(frozen=True)
class GrowthPoint:
    """One month of the Figure 1 series."""

    month: str
    monitored: int
    cumulative_abused: int


def growth_series(collector: FqdnCollector, dataset: AbuseDataset) -> List[GrowthPoint]:
    """The monthly Figure 1 series: monitored set and cumulative abuses.

    Missing months (no collector refresh that month) carry the last
    known value forward, as a plot would.
    """
    monitored: Dict[str, int] = dict(collector.monthly_growth())
    abused: Dict[str, int] = dict(dataset.monthly_cumulative)
    months = sorted(set(monitored) | set(abused))
    points: List[GrowthPoint] = []
    last_monitored = 0
    last_abused = 0
    for month in months:
        last_monitored = monitored.get(month, last_monitored)
        last_abused = abused.get(month, last_abused)
        points.append(
            GrowthPoint(month=month, monitored=last_monitored, cumulative_abused=last_abused)
        )
    return points


def growth_factor(points: List[GrowthPoint]) -> float:
    """Final/initial monitored-set ratio (the paper's set ~doubled)."""
    nonzero = [p.monitored for p in points if p.monitored > 0]
    if len(nonzero) < 2:
        return 1.0
    return nonzero[-1] / nonzero[0]
