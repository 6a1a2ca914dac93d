"""The stage protocol.

A stage is one component of the weekly pipeline.  The engine calls
``setup`` once before the first week, ``tick`` every week, and
``finish`` once after the last week.  Stages declare the context keys
they ``require`` and ``provide`` so the engine can validate the
composition before running anything.

``tick`` returns the number of items the stage processed this week
(FQDNs swept, changes classified, …); the engine feeds that into
:class:`~repro.pipeline.metrics.PipelineMetrics`.  Returning ``None``
counts as zero.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.pipeline.context import WeekContext


class Stage:
    """Base class / protocol for pipeline stages.

    Subclasses set :attr:`name` and override :meth:`tick`; ``setup``
    and ``finish`` default to no-ops.  ``requires``/``provides`` list
    the :class:`WeekContext` output keys the stage reads and writes.
    """

    name: str = ""
    requires: Tuple[str, ...] = ()
    provides: Tuple[str, ...] = ()

    def setup(self, ctx: WeekContext) -> None:
        """One-time initialisation before the first week."""

    def tick(self, ctx: WeekContext) -> Optional[int]:
        """Process one week; return items processed (or ``None``)."""
        raise NotImplementedError

    def finish(self, ctx: WeekContext) -> None:
        """One-time teardown after the last week."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.name!r}>"
