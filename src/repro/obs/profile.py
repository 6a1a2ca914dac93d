"""The ``python -m repro profile`` report.

Renders what the tracer and registry collected over one scenario run:
the top spans by total wall time (per-stage and per-shard timings),
the cache hit rates that justify the fast path (resolver memo, zone
lookup memos, extraction cache), and the retry/breaker heat per edge.
All tables degrade gracefully — a healthy run simply shows zero
retries and no breaker transitions.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.reporting import percent, render_table

#: The derived series both sweep-facing tables show: every sample but
#: the touch ledger's clean skips, i.e. the names the sweeps sampled.
NAMES_SAMPLED = "sweep.names_sampled"

#: (label, hits counter, misses counter) rows of the hit-rate table.
CACHE_SERIES: Tuple[Tuple[str, str, str], ...] = (
    ("resolver memo", "resolver.memo.hits", "resolver.memo.misses"),
    ("zone lookup", "zone.lookup.memo_hits", "zone.lookup.memo_misses"),
    ("zone cover (zone_for)", "zone.zone_for.memo_hits", "zone.zone_for.memo_misses"),
    ("html extraction", "extraction.html.hits", "extraction.html.misses"),
    ("sitemap extraction", "extraction.sitemap.hits", "extraction.sitemap.misses"),
    ("touch ledger (clean skips)", "journal.clean_skips", NAMES_SAMPLED),
    ("detector sig-index (pruned)", "detector.index.pruned", "detector.index.candidates"),
    ("rescan postings (skipped)", "rescan.skipped", "rescan.visited"),
)

#: How many spans / edges the tables keep.
TOP_SPANS = 14
TOP_EDGES = 10


def _span_table(tracer) -> str:
    aggregates = tracer.aggregates()
    ranked = sorted(
        aggregates.items(), key=lambda item: -item[1]["total_ms"]
    )[:TOP_SPANS]
    rows = [
        (
            name,
            stats["count"],
            f"{stats['total_ms']:.1f}",
            f"{stats['mean_ms']:.3f}",
            f"{stats['max_ms']:.2f}",
        )
        for name, stats in ranked
    ]
    if not rows:
        rows = [("(no spans recorded)", 0, "-", "-", "-")]
    return render_table(
        ["span", "count", "total ms", "mean ms", "max ms"],
        rows,
        title=f"Top spans by total wall time (of {len(aggregates)} span names)",
    )


def _counters(metrics) -> Dict[str, int]:
    """The registry's counters plus :data:`NAMES_SAMPLED`."""
    counters = metrics.counters()
    counters[NAMES_SAMPLED] = (
        counters.get("monitor.samples", 0) - counters.get("journal.clean_skips", 0)
    )
    return counters


def _cache_table(metrics) -> str:
    counters = _counters(metrics)
    rows: List[Tuple[object, ...]] = []
    for label, hits_key, misses_key in CACHE_SERIES:
        hits = counters.get(hits_key, 0)
        misses = counters.get(misses_key, 0)
        total = hits + misses
        rows.append(
            (label, hits, misses, percent(hits / total) if total else "-")
        )
    evictions = counters.get("resolver.memo.evictions", 0)
    rows.append(("resolver memo evictions", evictions, "-", "-"))
    return render_table(
        ["cache", "hits", "misses", "hit rate"], rows, title="\nCache hit rates"
    )


def _retry_table(metrics) -> str:
    counters = metrics.counters()
    rows: List[Tuple[object, ...]] = [
        ("http attempts (total)", counters.get("http.attempts", 0)),
        ("http retries (total)", counters.get("http.retries", 0)),
    ]
    per_edge = sorted(
        (
            (key, count)
            for key, count in counters.items()
            if key.startswith("http.retries{")
        ),
        key=lambda item: (-item[1], item[0]),
    )[:TOP_EDGES]
    rows.extend(per_edge)
    if not per_edge:
        rows.append(("per-edge retries", "(none)"))
    for transition in ("open", "half_open", "close"):
        total = sum(
            count
            for key, count in counters.items()
            if key.startswith(f"breaker.{transition}")
        )
        rows.append((f"breaker {transition} transitions", total))
    return render_table(
        ["event", "count"], rows, title="\nRetry and breaker heat"
    )


def _sweep_table(result, metrics) -> str:
    counters = _counters(metrics)
    rows: List[Tuple[object, ...]] = [
        ("samples taken", counters.get("monitor.samples", 0)),
        ("journal clean skips", counters.get("journal.clean_skips", 0)),
        ("names sampled", counters[NAMES_SAMPLED]),
        ("journal dirty hits", counters.get("journal.dirty", 0)),
        ("touch-ledger evictions", counters.get("monitor.touch_ledger.evictions", 0)),
        ("detector signature matches", counters.get("detector.signature_matches", 0)),
        ("detector index lookups", counters.get("detector.index.lookups", 0)),
        ("detector index candidates tested", counters.get("detector.index.candidates", 0)),
        ("detector index signatures pruned", counters.get("detector.index.pruned", 0)),
        ("rescans (new signatures)", counters.get("rescan.signatures", 0)),
        ("rescan FQDNs visited", counters.get("rescan.visited", 0)),
        ("rescan FQDNs skipped", counters.get("rescan.skipped", 0)),
        ("rescan full-scan fallbacks", counters.get("rescan.fallbacks", 0)),
        ("store posting evictions", counters.get("store.postings.evictions", 0)),
        ("checkpoint writes", counters.get("checkpoint.writes", 0)),
        ("checkpoint corrupt skipped", counters.get("checkpoint.corrupt_skipped", 0)),
    ]
    executor = getattr(result, "executor", None)
    report = getattr(executor, "last_report", None)
    if report is not None:
        rows.append(("last sweep wall s (elapsed)", f"{report.wall_seconds:.3f}"))
        rows.append(("last sweep cpu s (sample + record)", f"{report.cpu_seconds:.3f}"))
    return render_table(
        ["metric", "value"], rows, title="\nSweep path and detector"
    )


#: Counter series worth trending week over week, with short labels.
TREND_SERIES: Tuple[Tuple[str, str], ...] = (
    ("monitor.samples", "samples"),
    ("journal.clean_skips", "clean"),
    ("detector.signature_matches", "matches"),
    ("detector.newly_flagged", "flagged"),
)

#: How many week rows the trend table keeps (most recent last).
TREND_WEEKS = 12


def _trend_table(series) -> str:
    """Per-week counter deltas: the longitudinal view of the run."""
    weeks = series.weeks()
    if not weeks:
        return ""
    active = [
        (key, label)
        for key, label in TREND_SERIES
        if any(entry["deltas"].get(key) for entry in weeks)
    ]
    if not active:
        return ""
    shown = weeks[-TREND_WEEKS:]
    rows = [
        tuple(
            [entry["week"]]
            + [entry["deltas"].get(key, 0) for key, _label in active]
        )
        for entry in shown
    ]
    elided = len(weeks) - len(shown)
    title = "\nWeekly trend (per-week counter deltas"
    title += f", first {elided} weeks elided)" if elided else ")"
    return render_table(
        ["week"] + [label for _key, label in active], rows, title=title
    )


def _resource_table(result) -> str:
    """Where the CPU went: the engine's per-stage cost rows."""
    stages = [row for row in result.metrics.stages() if row.ticks]
    if not stages:
        return ""
    rows = [
        (row.name, row.ticks, f"{row.cpu_time:.3f}", f"{row.wall_time:.3f}")
        for row in sorted(stages, key=lambda row: (-row.cpu_time, row.name))
    ]
    return render_table(
        ["stage", "calls", "cpu s", "wall s"],
        rows,
        title="\nResource accounting (wall-class: varies run to run)",
    )


def render_profile(result, metrics, tracer, series=None) -> str:
    """The full profile report for one finished scenario run."""
    title = f"Observability profile ({result.weeks_run} weeks)"
    sections = [
        title,
        "=" * len(title),
        _span_table(tracer),
        _cache_table(metrics),
        _retry_table(metrics),
        _sweep_table(result, metrics),
    ]
    trend = _trend_table(series) if series is not None else ""
    for extra in (trend, _resource_table(result)):
        if extra:
            sections.append(extra)
    return "\n".join(sections)
