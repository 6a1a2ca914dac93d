"""The ``repro perf`` gate: diff two metrics exports for determinism.

``repro perf BASELINE CANDIDATE`` loads two ``--metrics-json`` exports
(schema ``repro.metrics/1``) and compares their
:func:`~repro.obs.timeseries.deterministic_view` — week-by-week counter
deltas plus final counters.  Any divergence fails: two same-seed runs
disagreeing is a determinism bug, and a committed baseline that no
longer matches means a change moved the counters.  Wall-class
resources are never compared; run-to-run timing noise is not a
verdict.

Exit codes are the contract CI scripts build on: 0 the views are
equal, 1 they diverge, 2 malformed input (unreadable, not JSON, or
not a ``repro.metrics`` export).
"""

from __future__ import annotations

import json
from typing import Dict, List

#: Gate exit codes (the CLI maps report -> code with these).
EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_MALFORMED = 2


class PerfInputError(ValueError):
    """Input file unreadable or not a metrics export."""


def load_export(path: str) -> Dict:
    """Load ``path`` as a ``repro.metrics`` export document."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise PerfInputError(f"cannot read {path}: {exc}") from exc
    if not text.strip():
        raise PerfInputError(f"{path} is empty")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PerfInputError(f"{path}: not JSON ({exc})") from exc
    if not (isinstance(doc, dict)
            and str(doc.get("schema", "")).startswith("repro.metrics/")):
        raise PerfInputError(f"{path}: not a repro.metrics export")
    return doc


def _deterministic_mismatches(base: Dict, cand: Dict) -> List[str]:
    """Human-readable divergences between two deterministic views."""
    # Imported here: timeseries is a sibling, but keeping perf importable
    # standalone (e.g. by external gate scripts) costs nothing.
    from repro.obs.timeseries import deterministic_view

    left = deterministic_view(base)
    right = deterministic_view(cand)
    problems: List[str] = []
    if left["schema"] != right["schema"]:
        problems.append(f"schema: {left['schema']} != {right['schema']}")
    for key in sorted(set(left["counters"]) | set(right["counters"])):
        a = left["counters"].get(key)
        b = right["counters"].get(key)
        if a != b:
            problems.append(f"counter {key}: {a} != {b}")
    if len(left["weeks"]) != len(right["weeks"]):
        problems.append(
            f"week count: {len(left['weeks'])} != {len(right['weeks'])}"
        )
    for a, b in zip(left["weeks"], right["weeks"]):
        if a != b:
            problems.append(f"week {a.get('week')}: deltas differ")
    return problems


def compare(baseline_path: str, candidate_path: str) -> Dict:
    """Full gate run: load both exports, diff their deterministic views.

    The report's ``exit_code`` is the process exit status; ``lines``
    are ready-to-print human output.  Raises :class:`PerfInputError`
    for malformed inputs (the CLI maps that to exit 2).
    """
    base = load_export(baseline_path)
    cand = load_export(candidate_path)
    lines: List[str] = ["perf: comparing metrics exports"]
    mismatches = _deterministic_mismatches(base, cand)
    report: Dict = {"mismatches": mismatches}
    if mismatches:
        lines.append(f"FAIL: {len(mismatches)} deterministic divergence(s)")
        lines.extend(f"  {line}" for line in mismatches[:20])
        if len(mismatches) > 20:
            lines.append(f"  ... and {len(mismatches) - 20} more")
        report["exit_code"] = EXIT_REGRESSION
    else:
        weeks = len(base.get("weeks", []))
        counters = len(base.get("counters", {}))
        lines.append(
            f"OK: deterministic views match "
            f"({weeks} weeks, {counters} counters)"
        )
        report["exit_code"] = EXIT_OK
    report["lines"] = lines
    return report
