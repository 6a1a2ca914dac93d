"""The stage protocol.

A stage is one component of the weekly pipeline.  The engine calls its
``tick`` once every week.  Stages declare the context keys they
``require`` and ``provide`` so the engine can validate the composition
before running anything.

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

    Subclasses set :attr:`name` and override :meth:`tick`.
    ``requires``/``provides`` list the :class:`WeekContext` output keys
    the stage reads and writes.
    """

    name: str = ""
    requires: Tuple[str, ...] = ()
    provides: Tuple[str, ...] = ()

    def tick(self, ctx: WeekContext) -> Optional[int]:
        """Process one week; return items processed (or ``None``)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.name!r}>"
