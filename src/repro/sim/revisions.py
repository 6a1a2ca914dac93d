"""Per-subject revision counters layered on the event log.

The sweep re-samples every monitored FQDN weekly, but in a steady world
almost nothing changes week over week — sweep cost should scale with
*churn*, not population.  The :class:`RevisionJournal` gives every
mutation path one place to declare "this subject changed": each
``bump`` increments a monotonic per-subject counter and appends the
subject to an ordered change log.  Consumers take a :meth:`cursor`
(an offset into that log) and later ask :meth:`changed_since` for the
set of subjects that moved — an O(churn) operation, independent of how
many subjects exist.

Subjects are ``(kind, key)`` tuples — e.g. ``("dns", "a.acme.com")``,
``("web", "a.acme.com")``, ``("site", ("azure", "web", "res-1"))`` —
so distinct substrates never collide and the hot lookup path stays a
plain tuple-keyed dict access.

:meth:`publish` unifies revision bumps with the existing
:class:`~repro.sim.events.EventLog`: world-mutation paths that used to
call ``events.record(...)`` directly call ``journal.publish(...)``
instead and get the event *and* the revision bump from one call.
"""

from __future__ import annotations

from datetime import datetime
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.sim.events import Event, EventLog

#: A journal subject: ``(kind, key)``.  ``key`` is usually a string
#: (an FQDN, an IP) but may be any hashable (site keys are tuples).
Subject = Tuple[str, Hashable]


class RevisionJournal:
    """Monotonic per-subject revision counters with a change cursor."""

    def __init__(self, events: Optional[EventLog] = None) -> None:
        self._events = events
        self._revisions: Dict[Subject, int] = {}
        #: Append-only log of bumped subjects, in bump order.  A cursor
        #: is an offset into this list; ``changed_since`` is just the
        #: set of the suffix — proportional to churn, not population.
        self._log: List[Subject] = []

    # -- writing ----------------------------------------------------------------

    def bump(self, kind: str, key: Hashable) -> int:
        """Advance ``(kind, key)``'s revision and return the new value."""
        subject = (kind, key)
        revision = self._revisions.get(subject, 0) + 1
        self._revisions[subject] = revision
        self._log.append(subject)
        return revision

    def publish(
        self, at: datetime, event_kind: str, subject: str, **data: Any
    ) -> Optional[Event]:
        """Record an event and bump the matching revision in one step.

        The revision kind is the event kind's first dotted component,
        so ``publish(at, "cloud.release", name)`` records the usual
        ``cloud.release`` event and bumps ``("cloud", name)``.
        """
        self.bump(event_kind.split(".", 1)[0], subject)
        if self._events is None:
            return None
        return self._events.record(at, event_kind, subject, **data)

    @property
    def events(self) -> Optional[EventLog]:
        """The event log this journal publishes into, if any."""
        return self._events

    # -- reading ----------------------------------------------------------------

    def revision(self, kind: str, key: Hashable) -> int:
        """Current revision of ``(kind, key)``; 0 if never bumped."""
        return self._revisions.get((kind, key), 0)

    def cursor(self) -> int:
        """An opaque position marking "now" in the change log."""
        return len(self._log)

    def changed_since(self, cursor: int) -> Set[Subject]:
        """Distinct subjects bumped after ``cursor`` was taken."""
        return set(self._log[cursor:])

    def __len__(self) -> int:
        """Total bumps recorded (equals the latest possible cursor)."""
        return len(self._log)
