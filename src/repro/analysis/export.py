"""Machine-readable export of an analysis run (``--report-json``).

Payloads are analysis dataclasses full of simulation types — ``Name``
keys, ``datetime`` stamps, sets, ``Counter`` tallies — so the export
walks them generically: dataclasses become objects, mappings are
key-sorted, sets become sorted lists, datetimes become ISO strings and
anything else falls back to ``str``.  Every transform is
deterministic, so two runs of the same scenario export byte-identical
JSON (the report-parity CI job relies on it).
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from datetime import date, datetime
from enum import Enum
from typing import Dict

from repro.analysis.engine import AnalysisRun

#: Bumped whenever the export layout changes incompatibly.
REPORT_SCHEMA = "repro.analysis.report/1"


def jsonify(value):
    """Recursively convert an analysis payload into JSON-ready data."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # NaN/Infinity are not JSON; analyses use them as "no data".
        return value if value == value and abs(value) != float("inf") else None
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: jsonify(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return jsonify(value.value)
    if isinstance(value, (datetime, date)):
        return value.isoformat()
    if isinstance(value, (set, frozenset)):
        return sorted((jsonify(item) for item in value), key=_sort_key)
    if isinstance(value, Counter):
        # most_common order is value-then-insertion; export key-sorted
        # like every other mapping.
        return {str(k): v for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, dict):
        return {
            str(k): jsonify(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    return str(value)


def _sort_key(value) -> str:
    return value if isinstance(value, str) else json.dumps(value, sort_keys=True)


def run_to_dict(run: AnalysisRun, result) -> Dict[str, object]:
    """The export object: run metadata plus one entry per analysis."""
    analyses: Dict[str, object] = {}
    for outcome in run.outcomes:
        analyses[outcome.task] = {
            "ok": outcome.ok,
            "error": outcome.error,
            "data": jsonify(outcome.payload) if outcome.ok else None,
        }
    return {
        "schema": REPORT_SCHEMA,
        "seed": result.config.seed,
        "weeks": result.weeks_run,
        "end": result.end.isoformat(),
        "abused_fqdns": len(result.dataset),
        "analyses": analyses,
    }


def report_json(run: AnalysisRun, result, indent: int = 2) -> str:
    """Serialize one analysis run as deterministic JSON text."""
    return json.dumps(run_to_dict(run, result), indent=indent) + "\n"
