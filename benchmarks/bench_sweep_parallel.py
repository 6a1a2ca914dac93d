"""Serial-oracle-vs-inline-shard sweep throughput.

One deterministic world is run once per executor — the serial oracle
(:class:`SerialExecutor`, the generic sampler, swapped into the sweep
stage) and the default single inline fused shard
(:class:`ProcessExecutor`) — and the monitor-sweep stage's
:class:`PipelineMetrics` row gives each one's sweep wall time and FQDN
throughput.  Both must export a byte-identical dataset; the bench
asserts it, so the throughput table doubles as an end-to-end
determinism check.  The floor compares the inline row with the serial
one: the gain is the fused path's, since sweeps do not fork.

Runs two ways:

* under pytest (``pytest benchmarks/bench_sweep_parallel.py``): the
  laptop-fast small scenario, emitting ``benchmarks/results/``;
* standalone (``python benchmarks/bench_sweep_parallel.py``): the
  paper-scale default scenario (the acceptance run — ≥ 2× the serial
  sweep's throughput), or ``--quick`` for the small one (≥ 1×).

A second table measures the churn-proportional ``--incremental`` mode
on the low-churn world: a full serial sweep (the gate's baseline), an
ungated full fused sweep (one inline shard), and the incremental sweep
(one inline shard too, so the last two rows isolate the revision
journal's clean-skip savings).  The standalone acceptance gate is ≥ 2×
the serial sweep's throughput with a byte-identical export.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from repro.core.export import dataset_to_json
from repro.core.reporting import render_table
from repro.core.scenario import ScenarioConfig, build_scenario
from repro.parallel.executor import ProcessExecutor, SerialExecutor

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: ``serial`` flags of the variants measured, serial baseline first.
VARIANTS = (True, False)


def _config(scale: str, weeks: Optional[int],
            incremental: bool = False, low_churn: bool = False) -> ScenarioConfig:
    if scale == "tiny":
        config = ScenarioConfig.tiny()
    elif scale == "small":
        config = ScenarioConfig.small()
    else:
        config = ScenarioConfig()
    if weeks is not None:
        config.weeks = weeks
    config.incremental = incremental
    if low_churn:
        # The churn-proportional acceptance scenario: a quiet world
        # where most weeks most names are provably unchanged.
        config.lifecycle.weekly_release_rate = 0.002
    return config


def run_variant(scale: str, weeks: Optional[int],
                incremental: bool = False, low_churn: bool = False,
                serial: bool = False) -> Dict:
    """One full scenario run; sweep cost read off the stage metrics.

    ``serial`` swaps :class:`SerialExecutor` into the sweep stage: no
    CLI run uses it, so the baselines have to ask for it.
    """
    engine = build_scenario(
        _config(scale, weeks, incremental=incremental, low_churn=low_churn)
    )
    result = engine.payload
    if serial:
        stage = next(s for s in engine.stages if s.name == "monitor-sweep")
        stage._executor = result.executor = SerialExecutor()
    engine.run()
    sweep = engine.metrics.stage("monitor-sweep")
    executor = result.executor
    cache_hits = cache_misses = 0
    mode = "serial"
    if isinstance(executor, ProcessExecutor):
        cache_hits = executor.extraction_cache.hits
        cache_misses = executor.extraction_cache.misses
        mode = executor.last_mode or "inline"
    # Last week's report: wall is elapsed, cpu is the shard's sampling
    # CPU (the serial oracle reports its elapsed time for both).
    report = executor.last_report if executor is not None else None
    return {
        # Bench results are matched on (workers, mode) by ``repro perf``;
        # every sweep runs in one process.
        "workers": 1,
        "mode": mode,
        "incremental": incremental,
        "wall_s": sweep.wall_time,
        "items": sweep.items_processed,
        "throughput": sweep.items_per_second,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "last_sweep_wall_s": report.wall_seconds if report is not None else 0.0,
        "last_sweep_cpu_s": report.cpu_seconds if report is not None else 0.0,
        "digest": hashlib.sha256(
            dataset_to_json(result.dataset, indent=2).encode("utf-8")
        ).hexdigest(),
        "weeks": engine.week_index,
    }


def measure(scale: str, weeks: Optional[int] = None,
            variants: Sequence[bool] = VARIANTS) -> List[Dict]:
    runs = [run_variant(scale, weeks, serial=serial) for serial in variants]
    # The fused shard must record exactly what the serial oracle does.
    digests = {run["digest"] for run in runs}
    assert len(digests) == 1, f"export digests diverged across executors: {digests}"
    return runs


def measure_isolated(scale: str, weeks: Optional[int] = None,
                     variants: Sequence[bool] = VARIANTS) -> List[Dict]:
    """Like :func:`measure`, but each variant runs in a fresh interpreter.

    Back-to-back variants in one process are not measured under equal
    conditions: the later runs inherit a grown heap and GC pressure from
    the earlier ones and read 10-20% slower for identical work.  A
    subprocess per variant gives each executor the same cold start,
    which is what a fair serial-vs-inline comparison needs.
    """
    script = pathlib.Path(__file__).resolve()
    env = dict(os.environ)
    src = str(script.parents[1] / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    runs: List[Dict] = []
    for serial in variants:
        cmd = [sys.executable, str(script), "--variant", "--scale", scale]
        if serial:
            cmd.append("--serial")
        if weeks is not None:
            cmd += ["--weeks", str(weeks)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            raise RuntimeError(
                f"bench variant serial={serial} failed:\n{proc.stderr}"
            )
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    digests = {run["digest"] for run in runs}
    assert len(digests) == 1, f"export digests diverged across executors: {digests}"
    return runs


def render(runs: List[Dict], scale: str) -> str:
    baseline = runs[0]["throughput"]
    rows = [
        (
            run["mode"],
            run["items"],
            f"{run['wall_s']:.2f}",
            f"{run['throughput']:,.0f}",
            f"{run['throughput'] / baseline:.2f}x" if baseline else "-",
            f"{run.get('last_sweep_cpu_s', 0.0):.3f}/"
            f"{run.get('last_sweep_wall_s', 0.0):.3f}",
            run["cache_hits"],
            run["cache_misses"],
        )
        for run in runs
    ]
    return render_table(
        ["executor", "fqdns swept", "sweep wall s", "fqdn/s", "speedup",
         "last wk cpu/wall s", "cache hits", "cache misses"],
        rows,
        title=(
            f"Sweep throughput, serial oracle vs one inline shard ({scale} "
            f"scenario, {runs[0]['weeks']} weeks, digests byte-identical)"
        ),
    )


def emit_results(runs: List[Dict], scale: str, out=sys.stdout) -> str:
    table = render(runs, scale)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "sweep_parallel.txt").write_text(table + "\n", encoding="utf-8")
    baseline = runs[0]["throughput"]
    trajectory = {
        "scale": scale,
        "weeks": runs[0]["weeks"],
        "runs": [
            {key: run[key] for key in
             ("workers", "mode", "items", "wall_s", "throughput")}
            for run in runs
        ],
        "inline_speedup": (
            runs[-1]["throughput"] / baseline if baseline else 0.0
        ),
    }
    (RESULTS_DIR / "sweep_parallel.json").write_text(
        json.dumps(trajectory, indent=2) + "\n", encoding="utf-8"
    )
    print(f"\n=== sweep_parallel ({scale}) ===\n{table}\n", file=out)
    return table


# -- incremental (churn-proportional) variant ------------------------------


#: ``(incremental, serial)`` runs of the incremental table, baseline first.
INCREMENTAL_VARIANTS = ((False, True), (False, False), (True, False))


def measure_incremental(scale: str, weeks: Optional[int] = None) -> List[Dict]:
    """Full-vs-incremental sweeps on the low-churn scenario.

    All runs share the quiet world (0.2%/week release rate): the
    serial full sweep, then a single inline shard full and incremental,
    so the last two isolate the journal's clean-skip savings.  Every
    run must export the byte-identical dataset (only the cost moves).
    """
    runs = [
        run_variant(scale, weeks, incremental=incremental,
                    low_churn=True, serial=serial)
        for incremental, serial in INCREMENTAL_VARIANTS
    ]
    digests = {run["digest"] for run in runs}
    assert len(digests) == 1, f"incremental export diverged from full: {digests}"
    return runs


def measure_incremental_isolated(scale: str,
                                 weeks: Optional[int] = None) -> List[Dict]:
    """The same runs, each in a fresh interpreter (fair timing)."""
    script = pathlib.Path(__file__).resolve()
    env = dict(os.environ)
    src = str(script.parents[1] / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    runs: List[Dict] = []
    for incremental, serial in INCREMENTAL_VARIANTS:
        cmd = [sys.executable, str(script),
               "--variant", "--scale", scale, "--low-churn"]
        if incremental:
            cmd.append("--incremental")
        if serial:
            cmd.append("--serial")
        if weeks is not None:
            cmd += ["--weeks", str(weeks)]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            raise RuntimeError(
                f"bench variant incremental={incremental} failed:\n{proc.stderr}"
            )
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    digests = {run["digest"] for run in runs}
    assert len(digests) == 1, f"incremental export diverged from full: {digests}"
    return runs


def _incremental_label(run: Dict) -> str:
    if run["incremental"]:
        return "incremental"
    return "full" if run["mode"] == "serial" else "full fused"


def render_incremental(runs: List[Dict], scale: str) -> str:
    baseline = runs[0]["throughput"]
    rows = [
        (
            f"{_incremental_label(run)} ({run['mode']})",
            run["items"],
            f"{run['wall_s']:.2f}",
            f"{run['throughput']:,.0f}",
            f"{run['throughput'] / baseline:.2f}x" if baseline else "-",
        )
        for run in runs
    ]
    return render_table(
        ["sweep mode", "fqdns swept", "sweep wall s", "fqdn/s", "speedup"],
        rows,
        title=(
            f"Churn-proportional sweep, full vs --incremental "
            f"({scale} scenario, low churn, {runs[0]['weeks']} weeks, "
            f"digests byte-identical)"
        ),
    )


def emit_incremental(runs: List[Dict], scale: str, out=sys.stdout) -> str:
    table = render_incremental(runs, scale)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "sweep_incremental.txt").write_text(
        table + "\n", encoding="utf-8"
    )
    baseline = runs[0]["throughput"]
    (RESULTS_DIR / "sweep_incremental.json").write_text(
        json.dumps(
            {
                "scale": scale,
                "weeks": runs[0]["weeks"],
                "runs": [
                    {key: run[key] for key in
                     ("incremental", "mode", "items", "wall_s", "throughput")}
                    for run in runs
                ],
                "incremental_speedup": (
                    runs[-1]["throughput"] / baseline if baseline else 0.0
                ),
            },
            indent=2,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"\n=== sweep_incremental ({scale}) ===\n{table}\n", file=out)
    return table


# -- pytest entry point ----------------------------------------------------


def test_sweep_parallel_throughput(emit):
    """Small-scale parity + throughput record for the bench trajectory."""
    runs = measure("small")
    emit_results(runs, "small")
    emit("sweep_parallel", render(runs, "small"))
    speedup = runs[-1]["throughput"] / runs[0]["throughput"]
    # The inline fused shard must never run slower than the serial
    # baseline; the >= 2x acceptance gate applies to the default-scale
    # standalone run, where steady-state weeks dominate.
    assert speedup >= 1.0, f"inline sweep slower than serial: {speedup:.2f}x"
    # The wall/cpu split must be sane on both: cpu is the sampling CPU
    # within the elapsed wall.
    for run in runs:
        assert run["last_sweep_wall_s"] > 0.0 and run["last_sweep_cpu_s"] > 0.0
        if run["mode"] == "serial":
            assert abs(run["last_sweep_wall_s"] - run["last_sweep_cpu_s"]) < 1e-9


def test_sweep_incremental_throughput(emit):
    """Full-vs-incremental parity + throughput on the low-churn world."""
    runs = measure_incremental("small")
    emit_incremental(runs, "small")
    emit("sweep_incremental", render_incremental(runs, "small"))
    speedup = runs[-1]["throughput"] / runs[0]["throughput"]
    # In-process conservative floor; the >= 2x acceptance gate applies
    # to the isolated standalone run.
    assert speedup >= 1.5, f"incremental sweep only {speedup:.2f}x the serial full sweep"


# -- standalone entry point ------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the laptop-fast small scenario instead "
                             "of the paper-scale default")
    parser.add_argument("--weeks", type=int, default=None,
                        help="override the scenario's week count")
    parser.add_argument("--variant", action="store_true",
                        help="internal: run one variant and print its "
                             "result row as JSON")
    parser.add_argument("--serial", action="store_true",
                        help="internal: run the --variant on the serial "
                             "executor")
    parser.add_argument("--scale", default=None,
                        help="internal: scenario scale for --variant")
    parser.add_argument("--incremental", action="store_true",
                        help="internal: run the --variant with "
                             "churn-proportional sweeps on")
    parser.add_argument("--low-churn", action="store_true",
                        help="internal: run the --variant on the quiet "
                             "(0.2%%/week release) world")
    args = parser.parse_args(argv)
    if args.variant:
        run = run_variant(args.scale or "full", args.weeks,
                          incremental=args.incremental,
                          low_churn=args.low_churn, serial=args.serial)
        print(json.dumps(run))
        return 0
    scale = "small" if args.quick else "full"
    runs = measure_isolated(scale, weeks=args.weeks)
    emit_results(runs, scale)
    speedup = runs[-1]["throughput"] / runs[0]["throughput"]
    floor = 1.0 if args.quick else 2.0
    if speedup < floor:
        print(f"FAIL: speedup {speedup:.2f}x below the {floor:.1f}x floor",
              file=sys.stderr)
        return 1
    print(f"inline shard speedup over the serial oracle: {speedup:.2f}x")
    runs = measure_incremental_isolated(scale, weeks=args.weeks)
    emit_incremental(runs, scale)
    inc_speedup = runs[-1]["throughput"] / runs[0]["throughput"]
    inc_floor = 1.5 if args.quick else 2.0
    if inc_speedup < inc_floor:
        print(f"FAIL: incremental sweep {inc_speedup:.2f}x below the "
              f"{inc_floor:.1f}x floor", file=sys.stderr)
        return 1
    print(f"incremental sweep speedup (low churn): {inc_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
