"""Structured span tracing to JSONL, with causal trace trees.

Every event carries two clocks: the **simulated** timestamp (``sim``,
the week being processed) and the **wall** clock (``wall`` plus span
``dur_ms``).  The sim-clock projection of a trace — every field except
the wall ones — is a pure function of the seed, so two same-seed runs
must emit identical projections; tests and the observability-smoke CI
job diff exactly that (:func:`sim_projection`).

Spans form a **causal tree**.  The currently-open span is tracked in a
:mod:`contextvars` context variable; a span opened while another is
open becomes its child and records the parent's id.  Ids are *path
ids* — ``parent-id/name#seq`` — assigned from deterministic state
only: the per-parent sequence number of that span name, or an explicit
``seq=`` the call site derives from simulation structure (the sweep's
shard span passes shard 0).  That makes the id-bearing projection a
pure function of the seed.

Sampling (``sample_every=N``) keeps every Nth span *per span name*, a
deterministic rule that thins the JSONL without desynchronising
same-seed runs.  Aggregates (span count and total duration per name,
for the ``profile`` report) always see every span.

:class:`Tracer` is a context manager: ``with Tracer(path) as tracer``
guarantees the JSONL handle is flushed and closed even when the traced
run raises — an exception mid-run must never leak the handle or drop
buffered trailing events.
"""

from __future__ import annotations

import json
import time
from contextvars import ContextVar
from datetime import datetime
from typing import Dict, List, Optional

#: Event fields derived from the wall clock — excluded when diffing
#: same-seed traces for determinism.
WALL_FIELDS = ("wall", "dur_ms")

#: Span names that exist only on some executors, not for every seed:
#: a sweep through the sharded executor opens one ``sweep.shard`` span,
#: the serial test oracle none.  :func:`parity_projection` drops them
#: so traces can be compared *across* executor choices.
TOPOLOGY_SPAN_PREFIXES = ("sweep.shard",)

#: The process-wide open-span context.  One tracer is active at a time
#: (the :data:`repro.obs.OBS` singleton), so the variable is shared by
#: all tracer instances.
_CURRENT_SPAN: ContextVar[Optional["_Span"]] = ContextVar(
    "repro_obs_current_span", default=None
)


def current_span_id() -> Optional[str]:
    """The id of the innermost open span (``None`` outside any span)."""
    span = _CURRENT_SPAN.get()
    return span.id if span is not None else None


class _Span:
    """One in-flight span; a context manager that emits on exit."""

    __slots__ = (
        "_tracer", "name", "sim", "week", "attrs", "_started",
        "id", "parent", "seq", "_token", "_child_seq",
    )

    def __init__(self, tracer: "Tracer", name: str, sim, week, seq, attrs):
        self._tracer = tracer
        self.name = name
        self.sim = sim
        self.week = week
        self.attrs = attrs
        self.seq = seq
        self._started = 0.0
        self.id: Optional[str] = None
        self.parent: Optional[str] = None
        self._token = None
        #: Per-name sequence counters of this span's children; lives and
        #: dies with the span, so id state never accumulates.
        self._child_seq: Optional[Dict[str, int]] = None

    def _next_child_seq(self, name: str) -> int:
        if self._child_seq is None:
            self._child_seq = {}
        n = self._child_seq.get(name, 0)
        self._child_seq[name] = n + 1
        return n

    def __enter__(self) -> "_Span":
        parent = _CURRENT_SPAN.get()
        if self.seq is not None:
            n = self.seq
        elif parent is not None:
            n = parent._next_child_seq(self.name)
        else:
            n = self._tracer._next_root_seq(self.name)
        if parent is not None:
            self.parent = parent.id
            self.id = f"{parent.id}/{self.name}#{n}"
        else:
            self.id = f"{self.name}#{n}"
        self._token = _CURRENT_SPAN.set(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration_ms = (time.perf_counter() - self._started) * 1000.0
        _CURRENT_SPAN.reset(self._token)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._finish_span(self, duration_ms)


class _NullSpan:
    """Shared no-op span: enter/exit do nothing, nothing allocates."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op stand-in installed while tracing is disabled."""

    __slots__ = ()

    def span(self, name: str, sim=None, week=None, seq=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, sim=None, week=None, **attrs) -> None:
        pass

    def emit_metrics(self, registry, sim=None) -> None:
        pass

    def aggregates(self) -> Dict[str, Dict[str, float]]:
        return {}

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: The shared disabled-mode tracer (stateless, safe to share).
NULL_TRACER = NullTracer()


def _stamp(value) -> Optional[str]:
    return value.isoformat() if isinstance(value, datetime) else value


class Tracer:
    """JSONL span tracer with causal ids, sampling and aggregates.

    ``path=None`` keeps aggregates only (the ``profile`` subcommand's
    mode); with a path, one JSON object per line is written with a
    fixed key order, so traces diff cleanly.  Use as a context manager
    to guarantee the handle closes on error paths.
    """

    def __init__(self, path: Optional[str] = None, sample_every: int = 1):
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self._handle = open(path, "w", encoding="utf-8") if path else None
        #: Spans started per name — drives the every-Nth sampling rule.
        self._seen: Dict[str, int] = {}
        #: name -> [count, total_ms, max_ms]; always fed, never sampled.
        self._agg: Dict[str, List[float]] = {}
        #: Per-name sequence counters of root spans (no open parent).
        self._root_seq: Dict[str, int] = {}
        self.events_emitted = 0

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Close (and thereby flush) even when the traced run raised: a
        # crashed scenario must still leave a readable, complete JSONL.
        self.close()

    # -- recording --------------------------------------------------------

    def span(self, name: str, sim=None, week=None, seq=None, **attrs) -> _Span:
        """Open a span; use as a context manager.

        ``seq`` overrides the per-parent sequence number in the span's
        path id, for call sites that derive it from simulation
        structure (the sweep's shard span pins shard 0) rather than
        from how many siblings opened first.
        """
        return _Span(self, name, sim, week, seq, attrs)

    def event(self, name: str, sim=None, week=None, **attrs) -> None:
        """Emit a point event (never sampled away); parented like a span."""
        self._write(
            self._payload("event", name, sim, week, attrs, parent=current_span_id())
        )

    def _next_root_seq(self, name: str) -> int:
        n = self._root_seq.get(name, 0)
        self._root_seq[name] = n + 1
        return n

    def _finish_span(self, span: _Span, duration_ms: float) -> None:
        agg = self._agg.get(span.name)
        if agg is None:
            self._agg[span.name] = [1, duration_ms, duration_ms]
        else:
            agg[0] += 1
            agg[1] += duration_ms
            if duration_ms > agg[2]:
                agg[2] = duration_ms
        seen = self._seen.get(span.name, 0)
        self._seen[span.name] = seen + 1
        if seen % self.sample_every:
            return
        payload = self._payload(
            "span", span.name, span.sim, span.week, span.attrs,
            span_id=span.id, parent=span.parent,
        )
        payload["dur_ms"] = round(duration_ms, 3)
        self._write(payload)

    def emit_metrics(self, registry, sim=None) -> None:
        """Write the registry snapshot as a trailing ``metrics`` event.

        Registries hold only deterministic values, so this event is part
        of the sim-clock projection — CI asserts counters straight off
        the trace file.
        """
        payload = self._payload("metrics", "metrics", sim, None, {})
        payload.update(registry.as_dict())
        self._write(payload)

    # -- output -----------------------------------------------------------

    def _payload(
        self, kind: str, name: str, sim, week, attrs,
        span_id: Optional[str] = None, parent: Optional[str] = None,
    ) -> Dict:
        payload = {"type": kind, "name": name}
        if span_id is not None:
            payload["id"] = span_id
        if parent is not None:
            payload["parent"] = parent
        if week is not None:
            payload["week"] = week
        if sim is not None:
            payload["sim"] = _stamp(sim)
        payload["wall"] = round(time.time(), 6)
        for key in sorted(attrs):
            payload[key] = _stamp(attrs[key])
        return payload

    def _write(self, payload: Dict) -> None:
        self.events_emitted += 1
        if self._handle is not None:
            self._handle.write(json.dumps(payload) + "\n")

    # -- reading ----------------------------------------------------------

    def aggregates(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name timing summary (count/total/mean/max ms)."""
        return {
            name: {
                "count": int(agg[0]),
                "total_ms": agg[1],
                "mean_ms": agg[1] / agg[0] if agg[0] else 0.0,
                "max_ms": agg[2],
            }
            for name, agg in sorted(self._agg.items())
        }

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class BufferTracer(Tracer):
    """A tracer that buffers payloads instead of writing them.

    The capture backend of the Chrome export: the CLI buffers the whole
    run and converts the events at exit.
    """

    def __init__(self, sample_every: int = 1):
        super().__init__(path=None, sample_every=sample_every)
        self.events: List[Dict] = []

    def _write(self, payload: Dict) -> None:
        self.events_emitted += 1
        self.events.append(payload)


def load_events(path: str) -> List[Dict]:
    """Parse a JSONL trace file back into event dicts."""
    events: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def sim_projection(events: List[Dict]) -> List[Dict]:
    """Events with every wall-clock field stripped.

    What remains — names, causal ids and parent ids, sim timestamps,
    deterministic attrs, the metrics snapshot — is a pure function of
    the seed and configuration; two same-seed runs of the same
    configuration must produce equal projections.
    """
    return [
        {key: value for key, value in event.items() if key not in WALL_FIELDS}
        for event in events
    ]


def parity_projection(events: List[Dict]) -> List[Dict]:
    """The topology-invariant slice of the sim projection.

    Drops the shard spans (the serial test oracle never opens them)
    and the trailing metrics snapshot (whose ledger and cache-split
    counters depend on the executor).  What survives — the
    stage, analysis and checkpoint spans with their causal ids — must
    be byte-identical for one seed across executors, and between a
    ledger sweep and a full one.
    """
    kept: List[Dict] = []
    for event in events:
        if event.get("type") == "metrics":
            continue
        if event.get("name", "").startswith(TOPOLOGY_SPAN_PREFIXES):
            continue
        kept.append(
            {key: value for key, value in event.items() if key not in WALL_FIELDS}
        )
    return kept
