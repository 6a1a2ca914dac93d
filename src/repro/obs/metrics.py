"""Counter and histogram registry for one process's run.

Registries hold **deterministic values only**: counts of events that a
fixed seed replays identically.  Wall-clock timings never go in here —
they belong to the :mod:`repro.obs.trace` span stream and the engine's
:class:`~repro.pipeline.metrics.PipelineMetrics` — which is what lets
tests and CI diff registries across same-seed runs (cache-state series
aside, see :func:`is_cache_state`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Tuple

#: Histogram bucket upper bounds (inclusive); values above the last
#: bound land in the overflow bucket.  Powers of two suit the things we
#: histogram — CNAME chain depths, retry attempt counts.
DEFAULT_BOUNDS: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Characters in label values that would be ambiguous inside the
#: ``name{k=v,...}`` key syntax, and their escapes.
_LABEL_ESCAPES = (
    ("\\", "\\\\"),  # must run first so escapes don't double-escape
    (",", "\\,"),
    ("=", "\\="),
    ("{", "\\{"),
    ("}", "\\}"),
)


def _escape_label(value: object) -> str:
    """Render a label value with the key-syntax metacharacters escaped.

    Without this, ``inc("x", a="1,b=2")`` and ``inc("x", a="1", b="2")``
    would collide into the same series key and silently merge counts.
    """
    text = str(value)
    for raw, escaped in _LABEL_ESCAPES:
        text = text.replace(raw, escaped)
    return text


@dataclass
class HistogramData:
    """One histogram series: counts per bucket plus running extrema."""

    bounds: Tuple[float, ...] = DEFAULT_BOUNDS
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        if not self.counts:
            # One bucket per bound plus the overflow bucket.
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "counts": list(self.counts),
        }


def metric_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical series key: ``name`` or ``name{k=v,...}``, keys sorted.

    Sorting makes the key independent of keyword order at the call
    site, so ``inc("x", a=1, b=2)`` and ``inc("x", b=2, a=1)`` hit the
    same series — the property label-based diffing relies on.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={_escape_label(labels[k])}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


#: Series that count a memo's hits and misses rather than work the run
#: did: the zone lookup/cover memos, the resolver memo and the
#: extraction cache.  Their split depends on what warmed the caches
#: before — earlier analyses in the same process, the sweep path that
#: enabled the resolver memo — so they are not a function of the seed
#: alone (DESIGN.md §10).
CACHE_STATE_SERIES = (
    "zone.*.memo_*",
    "resolver.memo.*",
    "extraction.*.hits",
    "extraction.*.misses",
)


def is_cache_state(key: str) -> bool:
    """Whether series ``key`` (labels allowed) is cache state."""
    name = key.split("{", 1)[0]
    return any(fnmatchcase(name, pattern) for pattern in CACHE_STATE_SERIES)


class MetricsRegistry:
    """Deterministic counters and histograms.

    Cheap on purpose: an ``inc`` on an unlabelled series is one dict
    get/set.
    """

    __slots__ = ("_counters", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, HistogramData] = {}

    # -- recording --------------------------------------------------------

    def inc(self, name: str, amount: int = 1, **labels: object) -> None:
        """Add ``amount`` to counter ``name`` (labelled series optional)."""
        key = metric_key(name, labels) if labels else name
        self._counters[key] = self._counters.get(key, 0) + amount

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Add one observation to histogram ``name``."""
        key = metric_key(name, labels) if labels else name
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = HistogramData()
        hist.observe(value)

    # -- reading ----------------------------------------------------------

    def counter(self, name: str, **labels: object) -> int:
        return self._counters.get(metric_key(name, labels), 0)

    def counters(self, prefix: str = "") -> Dict[str, int]:
        """Counter series (optionally filtered by prefix), name-sorted."""
        return {
            key: self._counters[key]
            for key in sorted(self._counters)
            if key.startswith(prefix)
        }

    def histogram(self, name: str, **labels: object) -> HistogramData:
        key = metric_key(name, labels)
        hist = self._histograms.get(key)
        return hist if hist is not None else HistogramData()

    def histograms(self) -> Dict[str, HistogramData]:
        return {key: self._histograms[key] for key in sorted(self._histograms)}

    # -- export -----------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot with deterministically sorted keys."""
        return {
            "counters": self.counters(),
            "histograms": {
                key: hist.as_dict() for key, hist in self.histograms().items()
            },
        }

    def rows(self) -> List[Tuple[str, object]]:
        """Render-ready (series, value) rows, counters then histogram
        means, each block name-sorted."""
        rows: List[Tuple[str, object]] = list(self.counters().items())
        rows.extend(
            (f"{key} (mean)", round(hist.mean, 3))
            for key, hist in self.histograms().items()
        )
        return rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return (
            self._counters == other._counters
            and self.as_dict()["histograms"] == other.as_dict()["histograms"]
        )


class NullMetrics:
    """No-op stand-in installed while observability is disabled.

    Every recording method is a constant-return no-op, and hot paths
    additionally guard with ``if OBS.enabled:`` so the disabled cost is
    one attribute load and a branch — nothing allocates.
    """

    __slots__ = ()

    def inc(self, name: str, amount: int = 1, **labels: object) -> None:
        pass

    def observe(self, name: str, value: float, **labels: object) -> None:
        pass

    def counter(self, name: str, **labels: object) -> int:
        return 0

    def counters(self, prefix: str = "") -> Dict[str, int]:
        return {}

    def histograms(self) -> Dict[str, HistogramData]:
        return {}

    def rows(self) -> List[Tuple[str, object]]:
        return []

    def as_dict(self) -> Dict[str, object]:
        return {"counters": {}, "histograms": {}}


#: The shared disabled-mode registry (stateless, safe to share).
NULL_METRICS = NullMetrics()
