"""In-memory layer tracing for the benchmark's traced runs.

The program under ``src/`` is never edited: :func:`installed` swaps
each layer's public entry point for a thin wrapper (class attribute or
module global), and restores every original on exit.  Each wrapped
call opens a *frame* on one stack.  When a frame closes, its duration
is charged to the enclosing frame's child time, so a frame's self time
is its duration minus the part covered by the frames it caused.

Two kinds of wrapper share that mechanism:

* ``SPAN`` entry points (stage ticks, sweeps, detection) are few per
  week.  Each call is kept as one span record: id, parent id, name,
  start, end and self time.
* ``LEAF`` entry points (resolver, web server, store, passive DNS, ...)
  run millions of times a run.  They keep no span record.

Both kinds sum count, total and self time per ``(parent name, name)``,
which is all a leaf leaves behind.

Everything stays in memory until the run ends; :meth:`LayerTracer.dump`
writes it out.  Forked workers inherit the wrappers, but what they
record dies with them — forked sweeps are read from the executor's own
split instead (see ``layers.py``).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

SPAN = "span"
LEAF = "leaf"
ROOT = "<root>"


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``module[.owner].attr`` under ``name``.

    ``owner`` is a class name in ``module`` (``None`` wraps a module
    global).  ``observe(tracer, result, args, kwargs)``, when given,
    runs after each call to record work counts with
    :meth:`LayerTracer.add`.
    """

    module: str
    owner: Optional[str]
    attr: str
    name: str
    kind: str = LEAF
    observe: Optional[Callable[["LayerTracer", object, tuple, dict], None]] = None


class LayerTracer:
    """Span records, per-parent leaf aggregates and work counts."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: (span id, parent span id, name, start ns, end ns, self ns).
        self.spans: List[Tuple[int, int, str, int, int, int]] = []
        #: (parent name, name) -> [calls, total ns, self ns], summed over
        #: every closed frame, span or leaf.
        self.by_parent: Dict[Tuple[str, str], List[int]] = {}
        self.counts: Dict[str, int] = {}
        # Open frames: [start ns, child ns, name, span id (0 = leaf)].
        self._stack: List[list] = []
        self._next_id = 1

    def _open(self, name: str, is_span: bool) -> list:
        span_id = 0
        if is_span:
            span_id = self._next_id
            self._next_id += 1
        frame = [self.clock(), 0, name, span_id]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        stack.pop()
        start, child_ns, name, span_id = frame
        duration = end - start
        self_ns = duration - child_ns
        parent_name = ROOT
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent_name = parent[2]
        agg = self.by_parent.get((parent_name, name))
        if agg is None:
            self.by_parent[(parent_name, name)] = [1, duration, self_ns]
        else:
            agg[0] += 1
            agg[1] += duration
            agg[2] += self_ns
        if span_id:
            # Leaves keep no record, so a span's parent is the nearest
            # enclosing *span*, wherever leaves sit in between.
            parent_id = next((f[3] for f in reversed(stack) if f[3]), 0)
            self.spans.append((span_id, parent_id, name, start, end, self_ns))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._open(name, True)
        try:
            yield
        finally:
            self._close(frame)

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn: Callable, target: Target) -> Callable:
        is_span = target.kind == SPAN
        name = target.name
        observe = target.observe
        opener, closer = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = opener(name, is_span)
            try:
                out = fn(*args, **kwargs)
            finally:
                closer(frame)
            if observe is not None:
                observe(self, out, args, kwargs)
            return out

        traced.__wrapped_by_perfbench__ = True
        return traced

    # -- reading ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(agg[0] for (_, leaf), agg in self.by_parent.items() if leaf == name)

    def busy_s(self, name: str) -> float:
        """Total time in ``name``, not double-counting recursive calls."""
        return sum(
            agg[1] for (parent, leaf), agg in self.by_parent.items()
            if leaf == name and parent != name
        ) / 1e9

    def self_s(self, name: str) -> float:
        return sum(
            agg[2] for (_, leaf), agg in self.by_parent.items() if leaf == name
        ) / 1e9

    def under_s(self, parent: str, name: str) -> float:
        agg = self.by_parent.get((parent, name))
        return agg[1] / 1e9 if agg else 0.0

    def dump(self, path: str) -> None:
        """Write spans, leaf aggregates and counts as one JSON file."""
        doc = {
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start_ns": s[3],
                 "end_ns": s[4], "self_ns": s[5]}
                for s in self.spans
            ],
            "by_parent": [
                {"parent": parent, "name": name, "calls": agg[0],
                 "total_ns": agg[1], "self_ns": agg[2]}
                for (parent, name), agg in sorted(self.by_parent.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _owner(target: Target):
    module = importlib.import_module(target.module)
    return getattr(module, target.owner) if target.owner else module


@contextmanager
def installed(tracer: LayerTracer, targets: List[Target]) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore.

    Only attributes defined directly on the owner are wrapped, so a
    subclass never inherits a wrapper and restoring puts back exactly
    the object that was there.
    """
    patched: List[Tuple[object, str, object]] = []
    try:
        for target in targets:
            owner = _owner(target)
            original = vars(owner)[target.attr]
            setattr(owner, target.attr, tracer.wrap(original, target))
            patched.append((owner, target.attr, original))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
