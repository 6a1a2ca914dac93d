"""Per-week shared state passed between stages.

Each weekly tick gets one :class:`WeekContext`: the simulated instant,
the week index, and a keyed output board where stages publish what
downstream stages consume (``changed_pairs``, ``changes``,
``newly_flagged`` …).  Every week gets a fresh context, so stages
cannot accidentally read stale state from a previous tick.

The context also carries the week's *quarantine*: dead-letter records
for items that failed: an FQDN whose fetch retries ran out or whose
sample raised, or a stage tick that raised.  A failing item degrades
to a quarantine record instead of aborting the week; the engine
accumulates these across weeks for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Dict, List


@dataclass(frozen=True)
class QuarantineRecord:
    """One dead-lettered item: what failed, where, and why.

    ``item`` is the failed unit — an FQDN for measurement failures, or
    the sentinel ``"<stage-tick>"`` when a whole stage tick failed.
    """

    week_index: int
    stage: str
    item: str
    reason: str


class MissingOutputError(KeyError):
    """A stage read an output key no earlier stage published this week."""

    def __init__(self, key: str, stage: str = ""):
        reader = f" (read by stage {stage!r})" if stage else ""
        super().__init__(
            f"pipeline output {key!r} was not published this week{reader}"
        )
        self.key = key
        self.stage = stage


@dataclass
class WeekContext:
    """One weekly tick's shared state."""

    at: datetime
    week_index: int
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: Name of the stage currently ticking (set by the engine; used to
    #: attribute :class:`MissingOutputError` and items-processed counts).
    current_stage: str = ""
    #: This week's dead-letter records (drained by the engine weekly).
    quarantine: List[QuarantineRecord] = field(default_factory=list)

    def put(self, key: str, value: Any) -> None:
        """Publish an inter-stage output for this week."""
        self.outputs[key] = value

    def get(self, key: str) -> Any:
        """Read an output published earlier this week.

        Raises :class:`MissingOutputError` when no stage published it —
        a mis-ordered composition, which the engine's dependency check
        catches at construction for stages that declare ``requires``.
        """
        try:
            return self.outputs[key]
        except KeyError:
            raise MissingOutputError(key, self.current_stage) from None

    def quarantine_item(self, item: Any, reason: str) -> None:
        """Dead-letter ``item``: processing it failed.

        The record is attributed to the currently-ticking stage; the
        week continues without the item (graceful degradation).
        """
        self.quarantine.append(
            QuarantineRecord(
                week_index=self.week_index,
                stage=self.current_stage,
                item=str(item),
                reason=reason,
            )
        )
