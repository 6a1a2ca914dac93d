"""Chrome trace-event export: spans as a Perfetto-loadable timeline.

``--trace-format chrome`` turns the JSONL span stream into the Chrome
trace-event JSON that ``chrome://tracing`` and https://ui.perfetto.dev
load directly, which is the fastest way to *see* a run: the sweep's
shard lane under the monitor-sweep stage, the report's analyses one
after another, checkpoint writes punctuating weeks.

Lane mapping — the trace-event ``pid``/``tid`` pair — separates the
run's phases:

* the main pipeline (stage spans, checkpoints) → pid 1 / tid 1;
* ``sweep.shard`` spans and everything nested under them → pid 1 /
  tid ``10 + shard_index`` (the inline sweep is shard 0, tid 10);
* ``analysis.*`` spans → pid 2 (the report phase, after the last
  week) with one tid per task, in first-seen order.

A span's lane comes from walking its **path id**: a span whose id
contains a ``sweep.shard#3`` segment belongs to shard 3's lane no
matter how deeply nested it is.  That information only exists because
ids are causal paths — the flat pre-tree stream couldn't have been
laned.

Events are ``ph:"X"`` complete events (wall start derived from the
recorded end stamp minus duration), point events are ``ph:"i"``
instants, and ``ph:"M"`` metadata rows name the lanes.  Timestamps are
microseconds normalised to the earliest event so traces start at t=0.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

_MAIN = (1, 1)
_SHARD_TID_BASE = 10
_ANALYSIS_PID = 2


def _lane_from_id(span_id: Optional[str]) -> Optional[Tuple[int, int, str]]:
    """(pid, tid, label) for an explicitly-laned path segment, if any.

    Walks the path segments outermost-first so a span nested under a
    shard span inherits the shard's lane rather than falling back to
    the main thread.
    """
    if not span_id:
        return None
    for segment in span_id.split("/"):
        name, _, seq = segment.rpartition("#")
        if name == "sweep.shard":
            try:
                index = int(seq)
            except ValueError:
                index = 0
            return (_MAIN[0], _SHARD_TID_BASE + index, f"shard {index}")
        if name.startswith("analysis."):
            return (_ANALYSIS_PID, 0, name[len("analysis."):])
    return None


def chrome_trace(events: List[Dict]) -> Dict:
    """Convert JSONL trace events to a Chrome trace-event document."""
    trace_events: List[Dict] = []
    #: analysis task name -> tid, assigned in first-seen order.
    analysis_tids: Dict[str, int] = {}
    lanes_seen: Dict[Tuple[int, int], str] = {_MAIN: "pipeline"}

    def resolve_lane(event: Dict) -> Tuple[int, int]:
        lane = _lane_from_id(event.get("id") or event.get("parent"))
        if lane is None:
            return _MAIN
        pid, tid, label = lane
        if pid == _ANALYSIS_PID:
            tid = analysis_tids.setdefault(label, len(analysis_tids) + 1)
        lanes_seen.setdefault((pid, tid), label)
        return pid, tid

    for event in events:
        kind = event.get("type")
        if kind not in ("span", "event"):
            continue  # the metrics snapshot has no timeline meaning
        wall = event.get("wall")
        if wall is None:
            continue
        pid, tid = resolve_lane(event)
        args = {
            key: value
            for key, value in event.items()
            if key not in ("type", "name", "wall", "dur_ms", "id", "parent")
        }
        if event.get("id"):
            args["id"] = event["id"]
        if kind == "span":
            dur_us = int(event.get("dur_ms", 0.0) * 1000)
            trace_events.append({
                "name": event.get("name", "?"),
                "ph": "X",
                # ``wall`` is stamped at span *end*; recover the start.
                "ts": int(wall * 1_000_000) - dur_us,
                "dur": dur_us,
                "pid": pid,
                "tid": tid,
                "args": args,
            })
        else:
            trace_events.append({
                "name": event.get("name", "?"),
                "ph": "i",
                "ts": int(wall * 1_000_000),
                "s": "t",
                "pid": pid,
                "tid": tid,
                "args": args,
            })

    if trace_events:
        origin = min(entry["ts"] for entry in trace_events)
        for entry in trace_events:
            entry["ts"] -= origin
    trace_events.sort(key=lambda entry: (entry["pid"], entry["tid"], entry["ts"]))

    metadata: List[Dict] = []
    for pid, label in ((1, "repro pipeline"), (_ANALYSIS_PID, "analysis pool")):
        if any(key[0] == pid for key in lanes_seen):
            metadata.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": label},
            })
    for (pid, tid), label in sorted(lanes_seen.items()):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": label},
        })

    return {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}


def render_chrome(events: List[Dict]) -> str:
    """The export as a JSON string (callers handle atomic file writes)."""
    return json.dumps(chrome_trace(events), indent=None, separators=(",", ":"))
