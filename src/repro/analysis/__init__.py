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
    AnalysisRegistry,
    AnalysisRun,
    AnalysisTask,
    run_analyses,
)
from repro.analysis.export import REPORT_SCHEMA, report_json
from repro.analysis.tasks import DEFAULT_SECTIONS, default_registry, default_tasks

__all__ = [
    "AnalysisRegistry",
    "AnalysisRun",
    "AnalysisTask",
    "run_analyses",
    "REPORT_SCHEMA",
    "report_json",
    "DEFAULT_SECTIONS",
    "default_registry",
    "default_tasks",
]
