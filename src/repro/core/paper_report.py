"""One-call generation of the full paper-style analysis report.

``build_report`` runs every Section 4-6 analysis over a finished
scenario and renders them into a single plain-text document — the
library equivalent of the paper's evaluation section.  Used by the CLI
(``python -m repro report``) and the forensics example; returned as a
string so callers can print, save or diff it.

Since the analysis-engine rework this module is a thin composition
over :mod:`repro.analysis`: the analyses run as a task graph in
registry order, each section renders from its tasks' payloads, and a
failed analysis degrades to an error stanza instead of killing the
report.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.engine import AnalysisRun, run_analyses
from repro.analysis.tasks import render_sections
from repro.core.scenario import ScenarioResult


def build_report(
    result: ScenarioResult, run: Optional[AnalysisRun] = None
) -> str:
    """Render the complete analysis report for one finished run.

    Callers that already executed the engine — e.g. to also export
    ``--report-json`` — pass their :class:`AnalysisRun` as ``run`` so
    the analyses are not recomputed.
    """
    if run is None:
        run = run_analyses(result)
    sections = render_sections(run, result)
    header = (
        "=" * 72
        + f"\nABUSE MEASUREMENT REPORT — seed {result.config.seed}, "
        f"{result.weeks_run} weeks, {len(result.dataset)} abused FQDNs\n"
        + "=" * 72
    )
    return header + "\n\n" + "\n\n".join(sections) + "\n"
