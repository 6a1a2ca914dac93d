"""Supervised-sweep recovery cost under worker faults.

Three runs of one deterministic world, all under the supervised
executor (every sharded sweep is supervised):

* fault-free — the baseline wall time and export digest;
* a worker-fault storm — crash/hang injection at a fixed rate,
  reporting the injected crashes and hangs and asserting the export
  parity the supervisor guarantees (byte-identical to fault-free);
* one poisoned FQDN — asserting the bisection quarantines it in every
  sweep it appears in.

Runs under pytest (tiny world, emits ``benchmarks/results/``) or
standalone (``python benchmarks/bench_supervisor.py`` for the small
scenario).
"""

from __future__ import annotations

import hashlib
import time

from repro.core.export import dataset_to_json
from repro.core.reporting import render_table
from repro.core.scenario import ScenarioConfig, run_scenario
from repro.faults.plan import FaultConfig


def _digest(result) -> str:
    return hashlib.sha256(
        dataset_to_json(result.dataset, indent=2).encode()
    ).hexdigest()


def _run(scale: str, weeks: int, workers: int, faults=None,
         shard_deadline=None):
    config = ScenarioConfig.tiny() if scale == "tiny" else ScenarioConfig.small()
    config.weeks = weeks
    config.workers = workers
    if faults is not None:
        config.faults = faults
    if shard_deadline is not None:
        config.shard_deadline = shard_deadline
    started = time.perf_counter()
    result = run_scenario(config)
    return result, time.perf_counter() - started


def run_bench(scale: str = "tiny", weeks: int = 8, workers: int = 4):
    baseline, base_s = _run(scale, weeks, workers)
    base_digest = _digest(baseline)

    storm = FaultConfig(
        enabled=True, worker_crash_rate=0.15, worker_hang_rate=0.05
    )
    faulted, fault_s = _run(scale, weeks, workers, faults=storm,
                            shard_deadline=3.0)
    fault_digest = _digest(faulted)
    injected = faulted.fault_plan.stats.injected

    poison_name = baseline.collector.monitored_sorted[
        len(baseline.collector.monitored_sorted) // 2
    ]
    poisoned, poison_s = _run(
        scale, weeks, workers,
        faults=FaultConfig(enabled=True, poison_fqdns=(poison_name,)),
    )
    quarantines = [
        r for r in poisoned.dead_letters if "poison shard" in r.reason
    ]

    rows = [
        ("fault-free run s", f"{base_s:.2f}"),
        ("worker-fault run s", f"{fault_s:.2f}"),
        ("poisoned run s", f"{poison_s:.2f}"),
        ("injected worker-crash", injected.get("worker-crash", 0)),
        ("injected worker-hang", injected.get("worker-hang", 0)),
        ("export parity under faults", fault_digest == base_digest),
        ("poisoned FQDN", poison_name),
        ("poison quarantines (1/sweep)", len(quarantines)),
    ]
    table = render_table(
        ["metric", "value"], rows,
        title=f"Supervised sweep under faults ({scale}, {weeks} weeks, "
              f"{workers} workers)",
    )
    assert fault_digest == base_digest, (
        "worker-fault run must export byte-identical data"
    )
    assert quarantines, "poison must be quarantined every sweep it appears in"
    return table


def test_supervisor_overhead_and_recovery(emit):
    emit("supervisor_recovery", run_bench())


if __name__ == "__main__":  # pragma: no cover
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    print(run_bench(scale="tiny" if args.quick else "small",
                    weeks=8 if args.quick else 12))
