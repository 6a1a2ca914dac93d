"""Simulated time.

The paper's measurement runs from January 2020 to early 2023 with weekly
sampling.  :class:`SimClock` models that: it holds a current simulated
:class:`~datetime.datetime` and advances in explicit steps.  All
timestamps in the simulation (DNS record changes, HTML snapshots,
certificate issuance, WHOIS creation dates) are drawn from a clock so
that longitudinal analyses (hijack duration, Figure 1 growth curves,
certificate timelines) are meaningful and reproducible.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import Iterator

#: Start of the paper's measurement period (Section 3).
DEFAULT_START = datetime(2020, 1, 6)  # first Monday of January 2020

#: End of the paper's measurement period (three years later).
DEFAULT_END = datetime(2023, 1, 2)


class ClockError(RuntimeError):
    """Raised on invalid clock manipulation (e.g. moving backwards)."""


class SimClock:
    """A monotonically advancing simulated clock.

    Parameters
    ----------
    start:
        Initial simulated time.
    end:
        Optional end of the simulation; :meth:`finished` becomes true
        once the clock passes it.  Advancing past ``end`` is allowed
        (analyses may look slightly beyond the window) but iteration
        helpers stop there.
    """

    def __init__(self, start: datetime = DEFAULT_START, end: datetime = DEFAULT_END):
        if end is not None and end < start:
            raise ClockError(f"end {end} precedes start {start}")
        self._start = start
        self._end = end
        self._now = start

    # -- read accessors -------------------------------------------------

    @property
    def start(self) -> datetime:
        """The simulated instant the clock was created at."""
        return self._start

    @property
    def end(self) -> datetime:
        """The configured end of the measurement window."""
        return self._end

    @property
    def now(self) -> datetime:
        """The current simulated instant."""
        return self._now

    @property
    def elapsed(self) -> timedelta:
        """Time elapsed since :attr:`start`."""
        return self._now - self._start

    def finished(self) -> bool:
        """Whether the clock has reached or passed its end."""
        return self._now >= self._end

    # -- mutation -------------------------------------------------------

    def advance(self, delta: timedelta) -> datetime:
        """Move the clock forward by ``delta`` and return the new time."""
        if delta < timedelta(0):
            raise ClockError(f"cannot move clock backwards by {delta}")
        self._now += delta
        return self._now

    def advance_days(self, days: float) -> datetime:
        """Move the clock forward by ``days`` days."""
        return self.advance(timedelta(days=days))

    # -- iteration helpers ----------------------------------------------

    def ticks(self, step: timedelta) -> Iterator[datetime]:
        """Yield successive instants, advancing by ``step``, until end.

        The current instant is yielded first, so a weekly monitoring
        loop sees the very first week of the measurement.
        """
        if step <= timedelta(0):
            raise ClockError(f"step must be positive, got {step}")
        while self._now < self._end:
            yield self._now
            self.advance(step)

    def weekly(self) -> Iterator[datetime]:
        """Weekly ticks — the paper's sampling cadence (Section 1)."""
        return self.ticks(timedelta(weeks=1))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SimClock(now={self._now.isoformat()})"


def month_key(instant: datetime) -> str:
    """Return a ``YYYY-MM`` bucket key used for monthly aggregation."""
    return f"{instant.year:04d}-{instant.month:02d}"
