"""Sighting windows that weekly sweeps extend without touching them.

A weekly sweep re-observes every monitored name, yet almost none of
them change: week after week the same snapshot state and the same
passive-DNS records are seen once more.  A :class:`SweepWindow` lets a
sweep extend all of those at once.  The sweep appends its instant to
one shared list; every window that *stands* on that list (has
``standing`` sources re-observing it each sweep) reads each instant
appended after ``since`` as ``standing`` more sightings ending at that
instant.  Reads are exact at any moment; :meth:`SweepWindow.fold`
writes the pending extension back before anything else moves the
window.
"""

from __future__ import annotations

from datetime import datetime
from typing import List, Optional


class SweepWindow:
    """``(last_seen, count)`` of something a sweep may extend lazily."""

    __slots__ = ("_last_seen", "_count", "_sweeps", "_since", "_standing")

    def __init__(self, last_seen: datetime, count: int) -> None:
        self._last_seen = last_seen
        self._count = count
        #: The shared sweep-instant list while standing, else ``None``.
        self._sweeps: Optional[List[datetime]] = None
        #: Instants before this index are already in ``_last_seen`` and
        #: ``_count``.
        self._since = 0
        #: How many sightings each later sweep adds.
        self._standing = 0

    def _window_last(self) -> datetime:
        if self._standing and len(self._sweeps) > self._since:
            return max(self._last_seen, self._sweeps[-1])
        return self._last_seen

    def _window_count(self) -> int:
        if self._standing:
            return self._count + self._standing * (len(self._sweeps) - self._since)
        return self._count

    def fold(self) -> None:
        """Write the pending extension into the stored window."""
        if self._standing:
            sweeps = self._sweeps
            if len(sweeps) > self._since:
                self._count += self._standing * (len(sweeps) - self._since)
                if sweeps[-1] > self._last_seen:
                    self._last_seen = sweeps[-1]
                self._since = len(sweeps)

    def stand(self, sweeps: List[datetime], delta: int) -> None:
        """Add ``delta`` (±1) standing sources, from the next sweep on."""
        self.fold()
        self._standing += delta
        self._sweeps = sweeps if self._standing else None
        self._since = len(sweeps)
