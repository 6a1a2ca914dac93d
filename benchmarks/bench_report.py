"""Report-engine benchmark: the old report vs the task-graph engine.

``python -m repro report`` used to compute Figure 27's
``cooccurrence_edges`` by an O(n²) all-pairs scan over the identifier
map.  The engine walks co-occurrence through the per-domain postings
index instead — O(co-occurring pairs).  Both run the analyses in
registry order, in one process.

The simulated world underproduces attacker identifiers relative to the
real measurement (the paper extracts ~31.5k phone numbers, social
handles, short links and backend IPs; a tiny sim run yields a few
hundred), so the n² term is invisible at sim scale.  This benchmark
therefore grafts a paper-magnitude synthetic identifier map onto a real
finished scenario — the ``identifiers`` task returns the synthetic map,
and everything downstream (clustering, co-occurrence, every renderer)
runs the production path over it.

Baseline = the engine + the retained ``cooccurrence_edges_naive`` scan
(the pre-rework report).  Candidate = the engine + the postings walk.
The two must agree byte-for-byte: the bench asserts identical edge
lists and identical rendered reports, so the speedup table doubles as
a parity check.

Runs two ways:

* under pytest (``pytest benchmarks/bench_report.py``): a reduced
  workload with a conservative ≥ 1.3× floor, emitting
  ``benchmarks/results/report_engine.txt``;
* standalone (``python benchmarks/bench_report.py``): the paper-scale
  acceptance run — ≥ 2× report wall-clock — or ``--quick`` for the
  reduced workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import random
import sys
import time
from typing import Dict, List

from repro.analysis import AnalysisRegistry, default_tasks, run_analyses
from repro.core.clustering import cooccurrence_edges, cooccurrence_edges_naive
from repro.core.identifiers import IdentifierMap
from repro.core.paper_report import build_report
from repro.core.reporting import render_table
from repro.core.scenario import ScenarioConfig, run_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Paper-magnitude identifier workload (standalone acceptance).  The
#: real measurement clusters ~31.5k identifiers; 8k keeps the O(n²)
#: baseline scan to tens of seconds while leaving the quadratic term
#: unmistakable.
PAPER_SCALE = dict(n_identifiers=8_000, n_campaigns=260, weeks=60)
#: Reduced workload for per-PR CI.
QUICK_SCALE = dict(n_identifiers=1_600, n_campaigns=60, weeks=16)

#: Report wall-clock gates (baseline wall / engine wall).
PAPER_GATE = 2.0
QUICK_GATE = 1.3


def build_identifier_map(rng: random.Random, n_identifiers: int,
                         n_campaigns: int) -> IdentifierMap:
    """A paper-shaped identifier map: campaign-clustered domain sharing.

    Identifiers belong to campaigns and draw their domains from the
    campaign's pool, reproducing the paper's structure — a long tail of
    small clusters plus dense shared cores — while keeping co-occurring
    pairs sparse enough that only the all-pairs baseline goes quadratic.
    """
    imap = IdentifierMap()
    buckets = [imap.phones, imap.socials, imap.short_links, imap.ips]
    pools = [
        [f"c{campaign:04d}-{i:03d}.victim.example.com" for i in range(30)]
        for campaign in range(n_campaigns)
    ]
    for serial in range(n_identifiers):
        campaign = rng.randrange(n_campaigns)
        domains = set(rng.sample(pools[campaign], rng.randint(1, 4)))
        bucket = buckets[serial % len(buckets)]
        bucket[f"ident-{serial:06d}"] = domains
    return imap


def bench_registry(synthetic_map: IdentifierMap, naive: bool) -> AnalysisRegistry:
    """The default registry with the identifier workload grafted in.

    ``naive=True`` additionally swaps the co-occurrence task back to
    the pre-rework all-pairs scan (the baseline under test).
    """

    def _synthetic_identifiers(result, deps):
        return synthetic_map

    def _naive_cooccurrence(result, deps):
        return cooccurrence_edges_naive(deps["identifiers"])

    tasks = []
    for task in default_tasks():
        if task.name == "identifiers":
            tasks.append(dataclasses.replace(task, run=_synthetic_identifiers))
        elif task.name == "cooccurrence" and naive:
            tasks.append(dataclasses.replace(task, run=_naive_cooccurrence))
        else:
            tasks.append(task)
    return AnalysisRegistry(tasks)


def run_variant(result, synthetic_map: IdentifierMap, *, naive: bool) -> Dict:
    started = time.perf_counter()
    run = run_analyses(result, registry=bench_registry(synthetic_map, naive=naive))
    report = build_report(result, run=run)
    wall = time.perf_counter() - started
    assert not run.failed, [outcome.error for outcome in run.failed]
    return {
        "path": "serial+naive-edges" if naive else "serial+postings",
        "wall_s": wall,
        "edges": run.payload("cooccurrence"),
        "report": report,
    }


def measure(n_identifiers: int, n_campaigns: int, weeks: int,
            seed: int = 11) -> List[Dict]:
    synthetic_map = build_identifier_map(
        random.Random(seed), n_identifiers, n_campaigns
    )
    config = ScenarioConfig.tiny(seed=seed)
    config.weeks = weeks
    result = run_scenario(config)
    baseline = run_variant(result, synthetic_map, naive=True)
    engine = run_variant(result, synthetic_map, naive=False)
    # Parity is the contract: the postings walk must emit the byte-same
    # edge list as the all-pairs scan, and the engine's report must be
    # byte-identical to the baseline's rendering.
    assert engine["edges"] == baseline["edges"], \
        "postings co-occurrence diverged from the all-pairs scan"
    assert engine["report"] == baseline["report"], \
        "engine report diverged from the baseline"
    # Sanity: the grafted workload is actually paper-shaped.
    assert len(cooccurrence_edges(synthetic_map)) > n_identifiers / 4
    return [baseline, engine]


def _speedup(runs: List[Dict]) -> float:
    baseline, engine = runs
    return baseline["wall_s"] / max(engine["wall_s"], 1e-9)


def render(runs: List[Dict], scale_label: str) -> str:
    rows = [
        (run["path"], f"{run['wall_s']:.3f}", len(run["edges"]))
        for run in runs
    ]
    rows.append(
        ("speedup (baseline/engine)", f"{_speedup(runs):.2f}x", "-")
    )
    return render_table(
        ["path", "report wall s", "fig27 edges"],
        rows,
        title=f"Report engine cost, {scale_label} "
              "(full build_report; edge lists and reports must agree)",
    )


def test_report_engine_speedup(emit):
    runs = measure(**QUICK_SCALE)
    emit("report_engine", render(runs, "quick scale"))
    speedup = _speedup(runs)
    assert speedup >= QUICK_GATE, (
        f"analysis engine only {speedup:.2f}x over the serial baseline "
        f"(floor {QUICK_GATE}x at quick scale)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced workload (CI smoke)")
    args = parser.parse_args(argv)
    scale = QUICK_SCALE if args.quick else PAPER_SCALE
    gate = QUICK_GATE if args.quick else PAPER_GATE
    label = "quick scale" if args.quick else "paper scale"
    runs = measure(**scale)
    table = render(runs, label)
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "report_engine.txt").write_text(table + "\n", encoding="utf-8")
    speedup = _speedup(runs)
    if speedup < gate:
        print(f"FAIL: {speedup:.2f}x < required {gate}x at {label}",
              file=sys.stderr)
        return 1
    print(f"OK: {speedup:.2f}x >= {gate}x at {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
