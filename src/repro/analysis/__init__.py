"""The analysis engine: the paper's figures as a task graph.

``repro.analysis`` turns the Section 4–6 analyses (clustering, SEO,
victimology, durations, certificates, cookies, malware, ...) into a
declarative task registry run in order, in process, with per-task
failure isolation, ``analysis.<name>`` observability series and a
machine-readable JSON export.
``repro.core.paper_report.build_report`` is a thin composition over
this package.
"""

from repro.analysis.engine import (
    AnalysisOutcome,
    AnalysisRegistry,
    AnalysisRun,
    AnalysisTask,
    run_analyses,
)
from repro.analysis.export import REPORT_SCHEMA, jsonify, report_json, run_to_dict
from repro.analysis.tasks import (
    DEFAULT_SECTIONS,
    ReportSection,
    default_registry,
    default_tasks,
    render_sections,
)

__all__ = [
    "AnalysisOutcome",
    "AnalysisRegistry",
    "AnalysisRun",
    "AnalysisTask",
    "run_analyses",
    "REPORT_SCHEMA",
    "jsonify",
    "report_json",
    "run_to_dict",
    "DEFAULT_SECTIONS",
    "ReportSection",
    "default_registry",
    "default_tasks",
    "render_sections",
]
