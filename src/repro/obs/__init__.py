"""Observability: deterministic metrics, causal tracing, week series.

The subsystem is off by default and free when off: the process-global
:data:`OBS` handle starts with null-object metrics, tracer and series
recorder, and hot paths guard their instrumentation with
``if OBS.enabled:`` — a single attribute load and branch on a
``__slots__`` singleton, so the golden baseline keeps its exact cost
profile and byte-identical output.

Enable it by installing real sinks::

    from repro.obs import OBS, MetricsRegistry, TimeSeriesRecorder, Tracer

    with Tracer(path) as tracer:
        OBS.configure(metrics=MetricsRegistry(), tracer=tracer,
                      series=TimeSeriesRecorder())
        try:
            ...  # run the scenario
        finally:
            OBS.reset()

The program runs in one process: weekly sweeps and the report's
analyses record straight into the process's registry and tracer.  The
series recorder snapshots the registry at week boundaries, after every
stage of the week has run.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (
    HistogramData,
    MetricsRegistry,
    NULL_METRICS,
    is_cache_state,
    metric_key,
)
from repro.obs.timeseries import (
    NULL_SERIES,
    TimeSeriesRecorder,
    cpu_seconds_now,
    deterministic_view,
)
from repro.obs.trace import (
    BufferTracer,
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    load_events,
    parity_projection,
    sim_projection,
)

__all__ = [
    "OBS",
    "Observability",
    "MetricsRegistry",
    "NULL_METRICS",
    "HistogramData",
    "metric_key",
    "is_cache_state",
    "Tracer",
    "BufferTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "load_events",
    "sim_projection",
    "parity_projection",
    "TimeSeriesRecorder",
    "NULL_SERIES",
    "cpu_seconds_now",
    "deterministic_view",
]


class Observability:
    """The process-global observability handle.

    ``enabled`` is precomputed on every (re)configuration so hot paths
    pay one attribute read, never an ``isinstance`` or null check.
    """

    __slots__ = ("metrics", "tracer", "series", "enabled")

    def __init__(self) -> None:
        self.metrics = NULL_METRICS
        self.tracer = NULL_TRACER
        self.series = NULL_SERIES
        self.enabled = False

    def configure(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        series: Optional[TimeSeriesRecorder] = None,
    ) -> None:
        """Install real sinks; ``None`` leaves that slot unchanged."""
        if metrics is not None:
            self.metrics = metrics
        if tracer is not None:
            self.tracer = tracer
        if series is not None:
            self.series = series
        self.enabled = not (
            self.metrics is NULL_METRICS
            and self.tracer is NULL_TRACER
            and self.series is NULL_SERIES
        )

    def reset(self) -> None:
        """Back to the free disabled state (does not close the tracer)."""
        self.metrics = NULL_METRICS
        self.tracer = NULL_TRACER
        self.series = NULL_SERIES
        self.enabled = False


#: The one instance everything instruments against.
OBS = Observability()
