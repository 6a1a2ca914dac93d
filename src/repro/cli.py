"""Command-line interface.

::

    python -m repro run        [--seed N] [--weeks N] [--scale tiny|small|full]
                               [--notify] [--randomize-names] [--export PATH]
                               [--faults [LEVEL]] [--fault-seed N] [--retries N]
                               [--checkpoint-dir DIR] [--checkpoint-every N]
                               [--resume]
    python -m repro report     [--seed N] [--scale ...] [--report-json PATH]
    python -m repro audit      [--seed N] [--scale ...]
    python -m repro pipeline   [--seed N] [--scale ...]
    python -m repro profile    [--seed N] [--scale ...]
    python -m repro perf       BASELINE CANDIDATE

``run`` executes a scenario and prints the headline summary (optionally
exporting the abuse dataset to JSON); ``report`` adds the per-analysis
breakdowns — computed by the :mod:`repro.analysis` task graph (a failed
analysis degrades to an error stanza instead of killing the report) and
optionally exported as machine-readable JSON with ``--report-json
PATH``; ``audit`` plays the defender and surveys the attack surface;
``pipeline`` prints the engine's per-stage timing/throughput table;
``profile`` runs with observability on and prints cache hit rates,
retry heat and stage cost.

Every subcommand accepts the observability knobs: ``--metrics`` prints
the deterministic counter registry after the run, ``--trace PATH``
streams span/metric events (``--trace-format jsonl`` — the default —
with sim-clock *and* wall-clock timestamps per event, or
``--trace-format chrome`` for a Perfetto/chrome://tracing-loadable
trace-event JSON with shard and analysis lanes),
``--trace-sample N`` keeps every Nth span per span name, and
``--metrics-json PATH`` exports the week-by-week counter deltas plus
the per-stage (and, for ``report``, per-analysis) cost rows as JSON.
Spans are recorded only when ``--trace`` is given.
With none of them given the observability layer stays null-object
disabled and adds zero cost.

``perf`` is the determinism gate: it compares two ``--metrics-json``
exports and exits 1 when they disagree on any deterministic value
(week deltas or final counters) — a determinism bug, or a change that
moved the counters.  Timings are never compared.  Unreadable input or
a file that is not a metrics export exits 2.

Every subcommand accepts the chaos knobs: ``--faults [LEVEL]`` turns on
deterministic fault injection (default level 0.05), ``--fault-seed N``
pins the fault streams independently of the world seed, and
``--retries N`` gives the weekly monitor a transient-failure retry
budget.  ``pipeline`` additionally prints the resilience summary —
injected-fault counts, client retries, breaker trips, quarantined
FQDNs — whenever the run had a fault plan or dead letters.

Sweeps are churn-proportional: each week the monitor asks the world's
revision journal what changed since its last pass and extends
unchanged names' observation windows from its touch ledger instead of
re-sampling them, while a fixed slice of those names is re-sampled in
full as a soundness check.  Exports stay byte-identical to a full
sweep's for any seed.

``--linear-detector`` turns the detector's inverted signature/posting
indexes off and matches with the paper-faithful linear scans; exports
are byte-identical either way (the indexes only skip signatures and
FQDNs that provably cannot match), so the flag exists as the
benchmark/parity baseline.

``--checkpoint-dir DIR`` durably snapshots the whole engine every
``--checkpoint-every N`` weeks (atomic, checksummed, keep-last-3);
``--resume`` restores the newest intact checkpoint from that directory
— skipping torn or corrupt files — and runs only the remaining weeks.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.chains import survey_attack_surface
from repro.core.export import dataset_to_json
from repro.core.reporting import percent, render_table
from repro.core.scenario import ScenarioConfig, ScenarioResult, run_scenario
from repro.core.scoring import score_detector
from repro.faults.plan import FaultConfig
from repro.faults.retry import RetryPolicy
from repro.obs import (
    BufferTracer,
    MetricsRegistry,
    NULL_TRACER,
    OBS,
    TimeSeriesRecorder,
    Tracer,
)
from repro.obs.chrome import render_chrome
from repro.obs.perf import EXIT_MALFORMED, PerfInputError
from repro.obs.perf import compare as perf_compare
from repro.obs.profile import render_profile
from repro.pipeline.store import CheckpointStore, atomic_write_text

if TYPE_CHECKING:
    from repro.analysis import AnalysisRun


def _in_range(kind, low, high=None):
    """An argparse ``type``: ``kind`` (int or float) at least ``low``.

    ``high`` adds an upper bound.  A value outside the range is a usage
    error (exit 2, one line), not a silent clamp or a traceback from
    deep in the run.
    """
    bound = f"{low} or more" if high is None else f"within [{low}, {high}]"

    def parse(text: str):
        value = kind(text)
        if not (low <= value and (high is None or value <= high)):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    # argparse reports a failed conversion as "invalid <__name__> value".
    parse.__name__ = kind.__name__
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Cloudy with a Chance of Cyberattacks' (NSDI 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run a scenario and print the summary"),
        ("report", "run a scenario and print analysis breakdowns"),
        ("audit", "run a scenario and survey the final attack surface"),
        ("pipeline", "run a scenario and print per-stage pipeline metrics"),
        ("profile", "run a scenario with observability on and print the "
                    "cache/retry/stage-cost profile"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--seed", type=int, default=42)
        cmd.add_argument("--scale", choices=("tiny", "small", "full"), default="small")
        cmd.add_argument("--weeks", type=_in_range(int, 0), default=None,
                         help="override the scale preset's week count")
        cmd.add_argument("--notify", action="store_true",
                         help="enable the notification campaign")
        cmd.add_argument("--randomize-names", action="store_true",
                         help="enable the provider-side countermeasure")
        cmd.add_argument("--faults", nargs="?", const=0.05,
                         type=_in_range(float, 0, 1), default=None, metavar="LEVEL",
                         help="inject deterministic faults at LEVEL "
                              "intensity (default 0.05 when given bare)")
        cmd.add_argument("--fault-seed", type=int, default=None,
                         help="seed the fault streams independently of "
                              "the world seed")
        cmd.add_argument("--retries", type=_in_range(int, 0), default=None, metavar="N",
                         help="monitor retry budget for transient "
                              "failures (default: no retries)")
        cmd.add_argument("--linear-detector", action="store_true",
                         help="disable the detector's signature/posting "
                              "indexes and match with the paper-faithful "
                              "linear scans (byte-identical exports; the "
                              "benchmark baseline)")
        cmd.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                         help="durably checkpoint the engine into DIR "
                              "(atomic, checksummed, keep-last-3)")
        cmd.add_argument("--checkpoint-every", type=_in_range(int, 1), default=4,
                         metavar="N",
                         help="weeks between checkpoints (default 4)")
        cmd.add_argument("--resume", action="store_true",
                         help="resume from the newest intact checkpoint in "
                              "--checkpoint-dir (torn/corrupt files are "
                              "skipped)")
        cmd.add_argument("--metrics", action="store_true",
                         help="collect and print the deterministic "
                              "metrics registry after the run")
        cmd.add_argument("--trace", metavar="PATH", default=None,
                         help="write span/metric events to PATH "
                              "(sim-clock and wall-clock timestamps)")
        cmd.add_argument("--trace-format", choices=("jsonl", "chrome"),
                         default="jsonl",
                         help="trace file format: jsonl event lines "
                              "(default) or chrome trace-event JSON for "
                              "Perfetto / chrome://tracing")
        cmd.add_argument("--trace-sample", type=_in_range(int, 1), default=1,
                         metavar="N",
                         help="keep every Nth span per span name in the "
                              "trace (default 1 = keep all)")
        cmd.add_argument("--metrics-json", metavar="PATH", default=None,
                         help="export week-by-week counter deltas and "
                              "per-stage cost rows as JSON to PATH "
                              "(atomic write)")
        if name == "run":
            cmd.add_argument("--export", metavar="PATH", default=None,
                             help="write the abuse dataset to a JSON file")
        if name == "report":
            cmd.add_argument("--report-json", metavar="PATH", default=None,
                             help="also export every analysis payload as "
                                  "machine-readable JSON to PATH (atomic "
                                  "write)")
    perf = sub.add_parser(
        "perf",
        help="diff the deterministic views of two metrics exports "
             "(week deltas and counters) and exit 1 on any divergence",
    )
    perf.add_argument("baseline", metavar="BASELINE",
                      help="baseline --metrics-json export")
    perf.add_argument("candidate", metavar="CANDIDATE",
                      help="candidate --metrics-json export")
    return parser


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    if args.scale == "tiny":
        config = ScenarioConfig.tiny(seed=args.seed)
    elif args.scale == "small":
        config = ScenarioConfig.small(seed=args.seed)
    else:
        config = ScenarioConfig(seed=args.seed)
    if args.weeks is not None:
        config.weeks = args.weeks
    config.notify_owners = args.notify
    config.randomize_names = args.randomize_names
    if getattr(args, "faults", None) is not None:
        config.faults = FaultConfig.chaos(
            level=args.faults, seed=getattr(args, "fault_seed", None)
        )
    if getattr(args, "retries", None) is not None:
        config.monitor.retry = RetryPolicy.standard(max(1, args.retries))
    config.detector.use_index = not getattr(args, "linear_detector", False)
    return config


def _print_summary(result: ScenarioResult, out) -> None:
    score = score_detector(result.dataset, result.ground_truth)
    print(
        render_table(
            ["metric", "value"],
            [
                ("weeks simulated", result.weeks_run),
                ("monitored cloud FQDNs", result.collector.monitored_count()),
                ("actual takeovers", len(result.ground_truth)),
                ("abused FQDNs detected", len(result.dataset)),
                ("signatures extracted", len(result.detector.signatures)),
                ("precision / recall", f"{percent(score.precision)} / {percent(score.recall)}"),
            ],
            title="Scenario summary",
        ),
        file=out,
    )


def _print_report(
    result: ScenarioResult, out, json_path: Optional[str] = None
) -> "AnalysisRun":
    from repro.analysis import report_json, run_analyses
    from repro.core.paper_report import build_report

    run = run_analyses(result)
    print(build_report(result, run=run), file=out)
    if json_path:
        # Atomic for the same reason as --export: a crash mid-write must
        # never leave a torn report where a previous good one stood.
        atomic_write_text(json_path, report_json(run, result))
        print(f"analysis JSON exported to {json_path}", file=out)
    return run


def _print_pipeline(result: ScenarioResult, out) -> None:
    metrics = result.metrics
    assert metrics is not None, "run_scenario always attaches metrics"
    print(
        render_table(
            ["stage", "ticks", "wall s", "mean tick ms", "items", "items/s",
             "fail+skip", "quarantined"],
            metrics.rows(),
            title=f"Pipeline stage metrics ({result.weeks_run} weeks, "
                  f"{metrics.total_wall_time():.2f}s total)",
        ),
        file=out,
    )
    _print_resilience(result, out)


def _print_resilience(result: ScenarioResult, out) -> None:
    """What was injected (chaos runs only) and what the run dead-lettered.

    Printed whenever the run had a fault plan or any dead letter, so a
    healthy run's failed samples and ticks show up by count here too.
    """
    if result.fault_plan is None and not result.dead_letters:
        return
    client = result.internet.client
    rows: List[Tuple[object, ...]] = []
    if result.fault_plan is not None:
        rows.extend((f"injected {kind}", count)
                    for kind, count in result.fault_plan.stats.rows())
    rows.extend(
        [
            ("client retries", client.retries_total),
            ("backoff simulated s", f"{client.backoff_seconds_total:.0f}"),
            ("breaker trips",
             client.breaker.trips if client.breaker is not None else 0),
            ("quarantined (dead letters)", len(result.dead_letters)),
        ]
    )
    print(render_table(["event", "count"], rows, title="\nResilience summary"),
          file=out)


def _print_audit(result: ScenarioResult, out) -> None:
    survey = survey_attack_surface(
        result.internet, result.collector.monitored_sorted, result.end
    )
    print(
        render_table(
            ["chain status", "FQDNs"], survey.rows(),
            title=f"Attack surface at {result.end.date()} "
                  f"({survey.hijackable} deterministically hijackable)",
        ),
        file=out,
    )
    exposed = [r for r in survey.reports if r.hijackable]
    if exposed:
        print(
            render_table(
                ["FQDN", "service", "re-registrable name"],
                [(r.fqdn, r.service_key, r.resource_name) for r in exposed],
                title="\nHijackable right now",
            ),
            file=out,
        )


def _print_metrics(registry: MetricsRegistry, out) -> None:
    rows = registry.rows()
    if not rows:
        rows = [("(no metrics recorded)", "-")]
    print(render_table(["series", "value"], rows, title="\nMetrics registry"),
          file=out)


def _cost_rows(
    result: Optional[ScenarioResult], analyses: Optional["AnalysisRun"]
) -> Dict[str, Tuple[int, float, float]]:
    """``--metrics-json``'s cost rows: (calls, cpu s, wall s) per name.

    Every stage that ticked, from the engine's metrics, plus each
    analysis task that ran (skipped tasks carry zeros and are left
    out).  Nothing when the run raised before it finished.
    """
    rows: Dict[str, Tuple[int, float, float]] = {}
    if result is not None:
        for row in result.metrics.stages():
            if row.ticks:
                rows[row.name] = (row.ticks, row.cpu_time, row.wall_time)
    if analyses is not None:
        for outcome in analyses.outcomes:
            if outcome.wall_ms or outcome.cpu_ms:
                rows[f"analysis.{outcome.task}"] = (
                    1, outcome.cpu_ms / 1000.0, outcome.wall_ms / 1000.0
                )
    return rows


def _run_perf(args: argparse.Namespace, out) -> int:
    """The ``perf`` subcommand: compare, print, map to an exit code."""
    try:
        report = perf_compare(args.baseline, args.candidate)
    except PerfInputError as error:
        print(f"perf: {error}", file=sys.stderr)
        return EXIT_MALFORMED
    for line in report["lines"]:
        print(line, file=out)
    return report["exit_code"]


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    if args.command == "perf":
        # Pure file comparison: no scenario, no observability setup.
        return _run_perf(args, out)
    config = _config_from_args(args)
    # ``profile`` implies observability; otherwise any flag turns it
    # on.  Disabled, the OBS singleton stays null-object and free.
    obs_active = (
        args.command == "profile"
        or args.metrics
        or args.trace
        or args.metrics_json
    )
    registry: Optional[MetricsRegistry] = None
    # Spans cost ids and clock reads: record them only for a trace file.
    tracer = NULL_TRACER
    series: Optional[TimeSeriesRecorder] = None
    chrome_out: Optional[str] = None
    if obs_active:
        registry = MetricsRegistry()
        if args.trace and args.trace_format == "chrome":
            # Chrome export needs the whole event list to lay out lanes
            # and normalise timestamps: buffer the run, convert at exit.
            chrome_out = args.trace
            tracer = BufferTracer(sample_every=args.trace_sample)
        elif args.trace:
            tracer = Tracer(path=args.trace, sample_every=args.trace_sample)
        series = TimeSeriesRecorder()
        OBS.configure(metrics=registry, tracer=tracer, series=series)
    store: Optional[CheckpointStore] = None
    if args.checkpoint_dir:
        store = CheckpointStore(args.checkpoint_dir)
    elif args.resume:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    result: Optional[ScenarioResult] = None
    analyses: Optional["AnalysisRun"] = None
    try:
        result = run_scenario(
            config,
            checkpoint_store=store,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
        if store is not None and args.resume and store.last_recovery is not None:
            recovery = store.last_recovery
            for name, reason in recovery.skipped:
                print(f"skipped corrupt checkpoint {name}: {reason}", file=out)
            if recovery.loaded is not None:
                print(f"resumed from checkpoint {recovery.loaded}", file=out)
            else:
                print("no intact checkpoint found; ran from scratch", file=out)
        if args.command == "run":
            _print_summary(result, out)
            if args.export:
                # Atomic: a crash mid-export must never leave a torn
                # dataset where a previous good one stood.
                atomic_write_text(args.export, dataset_to_json(result.dataset, indent=2))
                print(f"\ndataset exported to {args.export}", file=out)
        elif args.command == "report":
            analyses = _print_report(
                result, out, json_path=getattr(args, "report_json", None)
            )
        elif args.command == "audit":
            _print_audit(result, out)
        elif args.command == "pipeline":
            _print_pipeline(result, out)
        elif args.command == "profile":
            print(render_profile(result, registry, series), file=out)
        if args.metrics and args.command != "profile":
            _print_metrics(registry, out)
    finally:
        if obs_active:
            try:
                # The trailing metrics event makes the trace
                # self-contained: CI asserts counters straight off the
                # JSONL.  Exports run in the finally so a crashed run
                # still leaves its counters and finished weeks' deltas;
                # its cost rows need the finished result, so a run that
                # raised out of ``run_scenario`` exports none.
                tracer.emit_metrics(registry)
                if chrome_out is not None:
                    atomic_write_text(chrome_out, render_chrome(tracer.events))
                if args.metrics_json:
                    atomic_write_text(
                        args.metrics_json,
                        json.dumps(
                            series.export(
                                registry,
                                run={
                                    "command": args.command,
                                    "seed": args.seed,
                                    "scale": args.scale,
                                },
                                stages=_cost_rows(result, analyses),
                            ),
                            indent=2,
                        ),
                    )
            finally:
                # Whatever the export path did, the JSONL handle must
                # close (flushing it) and the singleton must reset.
                tracer.close()
                OBS.reset()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
