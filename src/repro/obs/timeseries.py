"""Week-boundary metric series and per-stage resource accounting.

The pipeline's unit of simulated time is the week: every
:meth:`~repro.pipeline.engine.PipelineEngine.step` runs the stage list
once, then advances the clock by the sweep interval.  A flat counter
registry answers "how many hijacks total", but the paper's longitudinal
questions — when does detection latency spike, which week's churn blew
the sweep budget — need the *trajectory*.  :class:`TimeSeriesRecorder`
captures it by snapshotting the counter registry at each week boundary
and storing the per-week **deltas** (week N's activity, not the running
total).

Two kinds of data live here and must never be conflated:

* **Deterministic**: week-indexed counter deltas.  Pure functions of
  the seed; two same-seed runs must produce equal delta series, and the
  ``repro perf --check`` gate diffs exactly these.
* **Wall-class**: CPU seconds (:func:`cpu_seconds_now`, this
  process's ``time.process_time``), peak RSS (:func:`peak_rss_kb`, from
  ``resource.getrusage`` where the platform has it), and wall seconds.
  These vary run to run and are *excluded* from determinism diffs —
  :func:`deterministic_view` strips them, mirroring ``WALL_FIELDS`` in
  the trace layer.

Per-stage resource rows accumulate across the run (sums of cpu and
wall) keyed by stage name, giving the ``profile`` report its "where
did the time go" table without touching the deterministic stream.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional

from repro.obs.metrics import is_cache_state

#: Schema tag stamped into every metrics export; ``repro perf`` uses it
#: to recognise the file kind and to refuse exports it can't compare.
METRICS_SCHEMA = "repro.metrics/1"

try:  # pragma: no cover - platform gate
    import resource as _resource
except ImportError:  # pragma: no cover - Windows
    _resource = None


def cpu_seconds_now() -> float:
    """User+system CPU seconds this process has burned so far.

    The program never forks, so there are no children to count.
    ``time.process_time`` reads to the microsecond; ``os.times`` ticks
    at 10 ms, which rounds a ~20 ms weekly sweep to 0 or 10 ms.
    """
    return time.process_time()


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unknowable).

    ``ru_maxrss`` is KiB on Linux but bytes on macOS; normalise so the
    exported number means one thing.  Windows lacks :mod:`resource`
    entirely — return 0 rather than fail, since resource rows are
    wall-class data that nothing gates on.
    """
    if _resource is None:
        return 0
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        rss //= 1024
    return int(rss)


class TimeSeriesRecorder:
    """Collects week-delta series plus per-stage resource rows."""

    __slots__ = ("_weeks", "_last_counters", "_stages")

    def __init__(self) -> None:
        #: One entry per completed week, in week order.
        self._weeks: List[Dict] = []
        #: Counter totals at the previous week boundary.
        self._last_counters: Dict[str, int] = {}
        #: stage name -> {"calls", "cpu_s", "wall_s"} accumulated rows.
        self._stages: Dict[str, Dict[str, float]] = {}

    # -- week series -------------------------------------------------------

    def snapshot(self, week_index: int, at, metrics) -> None:
        """Record week ``week_index``'s counter deltas at its boundary.

        ``metrics`` is the live registry; the delta against the previous
        boundary isolates the week's own activity.  Counters only — the
        delta of a high-watermark gauge or a histogram is not meaningful
        week over week.
        """
        current = dict(metrics.counters())
        deltas = {}
        for key in sorted(current):
            delta = current[key] - self._last_counters.get(key, 0)
            if delta:
                deltas[key] = delta
        self._last_counters = current
        entry = {"week": week_index, "deltas": deltas}
        if at is not None:
            entry["sim"] = at.isoformat() if hasattr(at, "isoformat") else at
        self._weeks.append(entry)

    # -- resource rows -----------------------------------------------------

    def record_stage(self, name: str, cpu_s: float, wall_s: float) -> None:
        row = self._stages.get(name)
        if row is None:
            row = {"calls": 0, "cpu_s": 0.0, "wall_s": 0.0}
            self._stages[name] = row
        row["calls"] += 1
        row["cpu_s"] += cpu_s
        row["wall_s"] += wall_s

    # -- reading -----------------------------------------------------------

    def weeks(self) -> List[Dict]:
        return list(self._weeks)

    def stage_rows(self) -> Dict[str, Dict[str, float]]:
        return {name: dict(self._stages[name]) for name in sorted(self._stages)}

    def is_empty(self) -> bool:
        return not (self._weeks or self._stages)

    # -- export ------------------------------------------------------------

    def export(self, metrics, run: Optional[Dict] = None) -> Dict:
        """The ``--metrics-json`` document.

        Deterministic sections (``weeks`` deltas, final ``counters``)
        and wall-class sections (``resources``, per-week ``sim`` stamps
        stay because they're seed-derived) live side by side;
        :func:`deterministic_view` carves out the former for diffing.
        """
        doc: Dict = {"schema": METRICS_SCHEMA}
        if run:
            doc["run"] = dict(run)
        doc["weeks"] = self.weeks()
        doc["counters"] = dict(metrics.counters())
        doc["resources"] = {
            "process": {
                "cpu_s": round(cpu_seconds_now(), 3),
                "peak_rss_kb": peak_rss_kb(),
            },
            "stages": {
                name: {
                    "calls": int(row["calls"]),
                    "cpu_s": round(row["cpu_s"], 4),
                    "wall_s": round(row["wall_s"], 4),
                }
                for name, row in self.stage_rows().items()
            },
        }
        return doc


def deterministic_view(export: Dict) -> Dict:
    """The seed-determined slice of a metrics export.

    Week deltas and final counters only — resources, run metadata and
    per-week sim stamps are dropped (sim stamps are deterministic but
    depend on the configured start date, which ``--check`` should not
    couple to), and so are the cache-state series
    (:func:`~repro.obs.metrics.is_cache_state`).  Two same-seed runs
    must produce equal views; this is what ``repro perf --check``
    compares.
    """

    def seeded(series: Dict) -> Dict:
        return {key: value for key, value in series.items() if not is_cache_state(key)}

    return {
        "schema": export.get("schema"),
        "weeks": [
            {"week": entry.get("week"), "deltas": seeded(entry.get("deltas", {}))}
            for entry in export.get("weeks", [])
        ],
        "counters": seeded(export.get("counters", {})),
    }


class NullSeries:
    """No-op stand-in installed while observability is disabled."""

    __slots__ = ()

    def snapshot(self, week_index: int, at, metrics) -> None:
        pass

    def record_stage(self, name: str, cpu_s: float, wall_s: float) -> None:
        pass

    def weeks(self) -> List[Dict]:
        return []

    def stage_rows(self) -> Dict[str, Dict[str, float]]:
        return {}

    def is_empty(self) -> bool:
        return True

    def export(self, metrics, run: Optional[Dict] = None) -> Dict:
        return {"schema": METRICS_SCHEMA, "weeks": [], "counters": {},
                "resources": {"process": {}, "stages": {}}}


#: The shared disabled-mode recorder (stateless, safe to share).
NULL_SERIES = NullSeries()
