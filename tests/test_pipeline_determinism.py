"""Determinism regression tests for the pipeline refactor.

The stage-based engine must be a pure refactor: a fixed seed produces
the identical abuse dataset it produced when ``run_scenario`` was one
monolithic loop.  The golden digests below were captured from the
pre-refactor driver (seed commit) on ``ScenarioConfig.tiny()`` — if
either changes, a behavioural difference slipped into the pipeline.
"""

import hashlib
import json
from typing import Optional

from repro.analysis import report_json, run_analyses
from repro.core.export import _dump_time, dataset_to_json
from repro.core.scenario import ScenarioConfig, build_scenario, run_scenario

#: sha256 of ``dataset_to_json(result.dataset, indent=2)`` for
#: ``ScenarioConfig.tiny()`` under the pre-refactor monolithic loop.
GOLDEN_DATASET_SHA256 = (
    "790d381e65cc8179b548ea176df255a64702a8f0a9338746bdc0c53680818272"
)
#: sha256 of ``ground_truth_to_json(result.ground_truth, indent=2)``.
GOLDEN_GROUND_TRUTH_SHA256 = (
    "ee60bcb3b5a81fcf1bc2107992910b15b00479f03b835b56f59112f39b397b19"
)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ground_truth_to_json(ground_truth, indent: Optional[int] = None) -> str:
    """The ground-truth hijack log as JSON: the oracle the digest pins."""
    rows = [
        {
            "fqdn": record.fqdn,
            "attacker_group": record.attacker_group,
            "service": record.resource.service_key,
            "provider": record.resource.provider,
            "taken_over_at": _dump_time(record.taken_over_at),
            "remediated_at": _dump_time(record.remediated_at),
        }
        for record in ground_truth.all_records()
    ]
    return json.dumps({"hijacks": rows}, indent=indent, ensure_ascii=False)


def test_same_seed_runs_export_identical_datasets():
    a = run_scenario(ScenarioConfig.tiny())
    b = run_scenario(ScenarioConfig.tiny())
    assert dataset_to_json(a.dataset, indent=2) == dataset_to_json(b.dataset, indent=2)
    assert ground_truth_to_json(a.ground_truth) == ground_truth_to_json(b.ground_truth)


def test_pipeline_engine_matches_pre_refactor_golden_output(tiny_result):
    assert _digest(dataset_to_json(tiny_result.dataset, indent=2)) == (
        GOLDEN_DATASET_SHA256
    )
    assert _digest(ground_truth_to_json(tiny_result.ground_truth, indent=2)) == (
        GOLDEN_GROUND_TRUTH_SHA256
    )


def test_stepped_engine_matches_run_scenario(tiny_result):
    """Driving the engine week by week equals the one-shot driver."""
    engine = build_scenario(ScenarioConfig.tiny())
    while not engine.clock.finished():
        engine.step()
    assert dataset_to_json(engine.payload.dataset, indent=2) == dataset_to_json(
        tiny_result.dataset, indent=2
    )
    assert engine.week_index == tiny_result.weeks_run


#: perfbench's world for ``--seed 21`` (``workloads.world_seed`` picks
#: scenario seed 5377), 26 weeks: the full-scale outputs, pinned so a
#: change that moves them fails here and not only in a benchmark run.
BENCH_WORLD_DATASET_SHA256 = (
    "61c10ec8a6651d55af28f7bb3f0a281fc67ae786db1f0071cc32cbfd8d77aa5f"
)
BENCH_WORLD_REPORT_SHA256 = (
    "3f2e49521e692824c905f5a35f588cc98a324720d60b3d8ec58abd9ad0a4da72"
)
BENCH_WORLD_FEED_SHA256 = (
    "7bbd190ca27551293b58d2b16b41673d6c99d4cb28be47358b69d572242e2a47"
)


def _passive_dns_feed(passive_dns) -> str:
    """Every observation as ``(key, first, last, count)``, in key order."""
    return repr(sorted(
        (key, obs.first_seen.isoformat(), obs.last_seen.isoformat(), obs.count)
        for key, obs in passive_dns._observations.items()
    ))


def test_benchmark_world_outputs_are_pinned():
    result = run_scenario(ScenarioConfig(seed=5377, weeks=26))
    # The feed is digested as the weeks left it; ``run_analyses``
    # detaches it, so the analyses below add no sightings.
    assert len(result.internet.passive_dns) == 5349
    assert _digest(_passive_dns_feed(result.internet.passive_dns)) == (
        BENCH_WORLD_FEED_SHA256
    )
    assert _digest(dataset_to_json(result.dataset, indent=2)) == (
        BENCH_WORLD_DATASET_SHA256
    )
    assert _digest(report_json(run_analyses(result), result)) == (
        BENCH_WORLD_REPORT_SHA256
    )
