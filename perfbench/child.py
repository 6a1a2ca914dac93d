"""One benchmark job in a fresh interpreter: a ``repro report`` run.

The parent (``run.py``) starts this file with a pickled job on stdin:
the workload's ``ScenarioConfig``, whether to trace, and where to
write the exports.  The job runs the same
sequence as ``repro report`` with both exports — ``build_scenario``,
``PipelineEngine`` weeks, ``run_analyses``, ``build_report``,
``report_json`` and ``dataset_to_json`` — and prints one JSON line of
timestamps, counts and digests.  Timestamps are ``time.perf_counter``
readings, which share one monotonic clock with the parent, so the
parent measures from the moment it started this process.
"""

import hashlib
import json
import pickle
import resource
import sys
import time
from contextlib import nullcontext


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cpu_s() -> float:
    """CPU seconds of this process and its reaped children so far.

    ``time.process_time`` and ``getrusage`` read to the microsecond;
    ``os.times`` counts 10 ms ticks, too coarse for one week.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Max resident set of this process and every reaped child, in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def run_job(job: dict) -> dict:
    from repro.analysis import report_json, run_analyses
    from repro.core.export import dataset_to_json
    from repro.core.paper_report import build_report
    from repro.core.scenario import build_scenario
    from repro.core.scoring import score_detector
    from repro.obs import OBS, MetricsRegistry
    from repro.pipeline.store import atomic_write_text

    tracer = registry = None
    scope = nullcontext()
    if job["trace"]:
        from layers import TARGETS, per_layer_metrics
        from tracing import LayerTracer, installed

        tracer = LayerTracer()
        registry = MetricsRegistry()
        # Counters only: the program's own tracer and series stay off.
        OBS.configure(metrics=registry)
        scope = installed(tracer, TARGETS)

    def span(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    out: dict = {}
    with scope:
        with span("setup.build"):
            engine = build_scenario(job["config"])
        out["t_built"] = time.perf_counter()
        out["setup_cpu_s"] = _cpu_s()
        result = engine.payload
        executor = result.executor
        modes: dict = {}
        weeks_ms, weeks_cpu_ms, week_samples = [], [], []
        monitor = result.monitor
        loop_started = time.perf_counter()
        while not engine.clock.finished():
            samples0 = monitor.samples_taken
            started, cpu_started = time.perf_counter(), _cpu_s()
            with span("week"):
                engine.run(max_weeks=1)
            weeks_ms.append((time.perf_counter() - started) * 1000.0)
            weeks_cpu_ms.append((_cpu_s() - cpu_started) * 1000.0)
            week_samples.append(monitor.samples_taken - samples0)
            mode = getattr(executor, "last_mode", None) or "serial"
            modes[mode] = modes.get(mode, 0) + 1
        loop_wall = time.perf_counter() - loop_started
        # What ``run_scenario`` attaches for the report.
        result.weeks_run = engine.week_index
        result.metrics = engine.metrics
        result.dead_letters = engine.dead_letters

        report_started, report_cpu_started = time.perf_counter(), _cpu_s()
        with span("analysis.run"):
            run = run_analyses(result)
        with span("analysis.render"):
            report_text = build_report(result, run=run)
        with span("analysis.export"):
            report_doc = report_json(run, result)
            dataset_doc = dataset_to_json(result.dataset, indent=2)
            prefix = job["out_prefix"]
            atomic_write_text(prefix + "report.txt", report_text)
            atomic_write_text(prefix + "report.json", report_doc)
            atomic_write_text(prefix + "dataset.json", dataset_doc)
        out["t_done"] = time.perf_counter()
        out["report_cpu_s"] = _cpu_s() - report_cpu_started
    stage_rows = engine.metrics.stages()
    score = score_detector(result.dataset, result.ground_truth)
    out.update(
        loop_wall_s=loop_wall,
        report_s=out["t_done"] - report_started,
        peak_rss_mb=_peak_rss_mb(),
        weeks_ms=weeks_ms,
        weeks_cpu_ms=weeks_cpu_ms,
        week_samples=week_samples,
        samples=monitor.samples_taken,
        executor_modes=modes,
        dataset_sha256=_digest(dataset_doc),
        report_sha256=_digest(report_doc),
        precision=score.precision,
        recall=score.recall,
        takeovers=len(result.ground_truth),
        monitored=result.collector.monitored_count(),
        # Operations the run attempted and how many failed: monitor
        # samples, stage ticks and analysis tasks.  Quarantined samples
        # and failed or skipped ticks all land in the dead letters.
        attempted=(
            monitor.samples_taken
            + sum(row.ticks + row.failures + row.skips for row in stage_rows)
            + len(run.outcomes)
        ),
        failed=len(result.dead_letters) + len(run.failed),
        analysis_wall_ms={o.task: o.wall_ms for o in run.outcomes},
    )
    if tracer is not None:
        OBS.reset()
        out["per_layer"] = per_layer_metrics(tracer, registry, result, run)
        tracer.dump(job["out_prefix"] + "trace.json")
    return out


def main() -> None:
    job = pickle.load(sys.stdin.buffer)
    out = run_job(job)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
