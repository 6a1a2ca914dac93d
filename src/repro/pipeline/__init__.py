"""Stage-based pipeline engine.

The paper's measurement system is a weekly loop — collect, monitor,
detect, analyze — run for three years.  This package turns that loop
into an explicit architecture: a :class:`Stage` is one pipeline
component with ``setup``/``tick``/``finish`` hooks, a
:class:`WeekContext` carries the current week plus the inter-stage
outputs, and a :class:`PipelineEngine` runs an ordered, dependency-
checked stage list with built-in per-stage instrumentation
(:class:`PipelineMetrics`) and checkpoint/resume support.

Stages are the seam every scaling change plugs into: a stage can be
swapped (a different monitor backend), sharded (the sweep executor),
profiled (the metrics registry), or resumed mid-run (checkpoints),
without touching the rest of the pipeline.
"""

from repro.pipeline.context import MissingOutputError, WeekContext
from repro.pipeline.engine import PipelineEngine, StageGraphError
from repro.pipeline.metrics import PipelineMetrics
from repro.pipeline.stage import Stage

__all__ = [
    "MissingOutputError",
    "PipelineEngine",
    "PipelineMetrics",
    "Stage",
    "StageGraphError",
    "WeekContext",
]
