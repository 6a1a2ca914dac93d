"""The repository's benchmark: full ``repro report`` runs, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload full-default --seed 1 --seconds 45 --trace 0

Each run is a closed loop with one client: the workload's
``ScenarioConfig`` is built from ``--seed`` and handed to a fresh
interpreter (``child.py``) that runs the whole report job; the next
job starts only after the last one exits.  With ``--trace 0`` the
benchmark repeats the same job until ``--seconds`` have passed (at
least ``MIN_JOBS`` times) and prints the end-to-end metrics.  The jobs
are deterministic, so each phase and each simulated week does the same
work in every repeat; the timings take, per phase and per week, the
fastest repeat (see ``end_to_end``).  With ``--trace 1`` it runs the
job once untraced and once with the layer wrappers installed, and
prints the per-layer metrics; ``trace.overhead_s`` is the difference
of the two walls.

Every result is checked: exports must be byte-equal across repeats and
across the workloads, which build the same world from the same seed
(digests of earlier runs in this checkout are kept in
``.perfbench_out/digests.json``), detection precision and recall must
stay above fixed floors, and no operation may fail.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name
every metric with its unit, and the host fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Repeats of the job per run, however long they take.
MIN_JOBS = 3
#: Detection quality floors.  Over 8 seeds of each workload precision
#: was always 1.0 and recall 0.829-0.986: takeovers in a run's last
#: weeks are not all detected yet.
PRECISION_FLOOR = 0.95
RECALL_FLOOR = 0.75
CHILD_TIMEOUT_S = 170

END_TO_END: List[Tuple[str, str]] = [
    ("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
    ("fqdn_weeks_per_s", "1/s"), ("week_p50_ms", "ms"), ("peak_rss_mb", "MiB"),
]


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), BENCH_DIR]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(job: dict) -> dict:
    """Start ``child.py``, hand it the job, wait for it; add ``t_spawn``."""
    payload = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
    t_spawn = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py")],
        input=payload, stdout=subprocess.PIPE, env=_child_env(),
        cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark job exited with code {proc.returncode}")
    out = json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])
    out["t_spawn"] = t_spawn
    return out


def _job(config, workload, tag: str, trace: bool = False) -> dict:
    return {
        "config": config,
        "trace": trace,
        "out_prefix": os.path.join(OUT_DIR, f"{workload.name}-{tag}-"),
    }


def end_to_end(runs: List[dict]) -> Dict[str, float]:
    """The end-to-end metrics of a run's repeated jobs.

    The host these runs share slows the CPU by 15-75% for stretches
    of a second or more, in CPU time as much as in wall time, and the
    share of slow stretches drifts from minute to minute.  Every repeat
    of a job does the same work phase by phase and week by week, so
    each phase (set-up, every week, report) counts with its fastest
    repeat: a phase reads slow only if every repeat of it fell in a
    slow stretch.  ``setup_s`` is the median set-up of the run's jobs.
    """
    def best(key: str) -> List[float]:
        return [min(week) for week in zip(*(run[key] for run in runs))]

    weeks_ms, weeks_cpu_ms = best("weeks_ms"), best("weeks_cpu_ms")
    setups = [r["t_built"] - r["t_spawn"] for r in runs]
    loop_s = sum(weeks_ms) / 1000.0
    return {
        "wall_s": min(setups) + loop_s + min(r["report_s"] for r in runs),
        "cpu_s": (min(r["setup_cpu_s"] for r in runs) + sum(weeks_cpu_ms) / 1000.0
                  + min(r["report_cpu_s"] for r in runs)),
        "setup_s": statistics.median(setups),
        "fqdn_weeks_per_s": runs[0]["samples"] / loop_s,
        "week_p50_ms": statistics.median(weeks_ms),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def check_runs(workload, seed: int, runs: List[dict]) -> List[str]:
    """Every output check; returns the failures as messages."""
    problems: List[str] = []
    for key in ("dataset_sha256", "report_sha256", "samples", "week_samples"):
        if any(run[key] != runs[0][key] for run in runs[1:]):
            problems.append(f"{key} differs between repeats")
    for run in runs:
        if run["precision"] < PRECISION_FLOOR:
            problems.append(f"precision {run['precision']:.3f} < {PRECISION_FLOOR}")
        if run["recall"] < RECALL_FLOOR:
            problems.append(f"recall {run['recall']:.3f} < {RECALL_FLOOR}")
        if run["failed"]:
            problems.append(f"{run['failed']} of {run['attempted']} operations failed")
    problems.extend(_check_parity(workload, seed, runs[0]))
    return problems


def _check_parity(workload, seed: int, run: dict) -> List[str]:
    """Exports of one world must match every earlier run's on that seed."""
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    key = f"seed{seed}"
    mine = {"dataset": run["dataset_sha256"], "report": run["report_sha256"]}
    seen = known.get(key)
    if seen is None:
        known[key] = dict(mine, first=workload.name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(known, handle, indent=1, sort_keys=True)
        return []
    return [
        f"{kind} export differs from {seen['first']} on seed {seed}"
        for kind in ("dataset", "report") if seen[kind] != mine[kind]
    ]


def host_fingerprint(runs: List[dict]) -> dict:
    from repro.parallel.executor import effective_cpus

    modes: Dict[str, int] = {}
    for run in runs:
        for mode, count in run["executor_modes"].items():
            modes[mode] = modes.get(mode, 0) + count
    return {
        "cpus": effective_cpus(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "executor_modes": modes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        _fail_setup("no src/repro here: run from the repository root")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from layers import PER_LAYER, unit
    from workloads import WORKLOADS, make_config

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail_setup(f"unknown workload {args.workload!r} (have {sorted(WORKLOADS)})")
    os.makedirs(OUT_DIR, exist_ok=True)
    config = make_config(workload, args.seed)

    if args.trace:
        runs = [run_child(_job(config, workload, "untraced"))]
        traced = run_child(_job(config, workload, "traced", trace=True))
        runs.append(traced)
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_s"] = (
            (traced["t_done"] - traced["t_spawn"])
            - (runs[0]["t_done"] - runs[0]["t_spawn"])
        )
        # Always 0 on a healthy run, so it cannot carry a relative
        # bound as an end-to-end metric; ``failed`` reports it there.
        metrics["failed_share"] = (
            sum(run["failed"] for run in runs) / sum(run["attempted"] for run in runs)
        )
        units = {name: unit(name) for name in PER_LAYER}
        names = PER_LAYER
    else:
        runs = []
        started = time.perf_counter()
        while len(runs) < MIN_JOBS or time.perf_counter() - started < args.seconds:
            runs.append(run_child(_job(config, workload, f"run{len(runs)}")))
        metrics = end_to_end(runs)
        units = dict(END_TO_END)
        names = [name for name, _ in END_TO_END]

    problems = check_runs(workload, args.seed, runs)
    host = host_fingerprint(runs)
    print(json.dumps({"workload": workload.name, "seed": args.seed, "runs": len(runs),
                      "host": host}))
    for name in names:
        print(f"{name:40s} {metrics[name]:16.6f} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    # The run's output check counts as one more operation.
    attempted = sum(run["attempted"] for run in runs) + 1
    failed = sum(run["failed"] for run in runs) + (1 if problems else 0)
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }
    with open(os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(dict(summary, host=host, problems=problems, runs=[
            {key: run[key] for key in (
                "precision", "recall", "takeovers", "monitored", "samples",
                "executor_modes", "analysis_wall_ms", "dataset_sha256", "report_sha256",
                "report_s", "loop_wall_s",
            )} for run in runs
        ]), handle, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
