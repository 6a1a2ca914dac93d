"""Tests for the ``repro perf`` regression gate.

Covers input classification (metrics exports, JSONL traces, Chrome
exports, bench results, and the malformed rejects), the threshold +
noise-floor comparison math, the ``--check`` deterministic-view diff,
and the CLI exit-code contract the CI job builds on: 0 pass, 1
regression/mismatch, 2 malformed input.
"""

import json

import pytest

from repro.cli import main
from repro.obs.perf import (
    DEFAULT_MIN_MS,
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_REGRESSION,
    PerfInputError,
    compare,
    compare_timings,
    load_export,
)


def _metrics_export(stage_wall_s=1.0, counters=None, weeks=None):
    return {
        "schema": "repro.metrics/1",
        "run": {"seed": 7},
        "weeks": weeks if weeks is not None else [
            {"week": 0, "sim": "2020-01-06T00:00:00", "deltas": {"c": 3}},
            {"week": 1, "deltas": {"c": 2}},
        ],
        "counters": counters if counters is not None else {"c": 5},
        "resources": {
            "process": {"cpu_s": 2.0, "peak_rss_kb": 1000},
            "stages": {
                "monitor-sweep": {
                    "calls": 2, "cpu_s": stage_wall_s, "wall_s": stage_wall_s,
                }
            },
        },
    }


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return str(path)


# -- classification --------------------------------------------------------


def test_load_export_classifies_every_kind(tmp_path):
    metrics = _write(tmp_path, "m.json", _metrics_export())
    chrome = _write(tmp_path, "c.json", {"traceEvents": [], "displayTimeUnit": "ms"})
    bench = _write(tmp_path, "b.json", {"runs": [{"workers": 1, "wall_s": 1.0}]})
    trace = _write(
        tmp_path, "t.jsonl",
        '{"type": "span", "name": "s", "dur_ms": 2.0}\n'
        '{"type": "metrics", "name": "metrics"}\n',
    )
    assert load_export(metrics)[0] == "metrics"
    assert load_export(chrome)[0] == "chrome"
    assert load_export(bench)[0] == "bench"
    kind, events = load_export(trace)
    assert kind == "trace" and len(events) == 2


def test_load_export_rejects_malformed_inputs(tmp_path):
    with pytest.raises(PerfInputError, match="cannot read"):
        load_export(str(tmp_path / "absent.json"))
    with pytest.raises(PerfInputError, match="empty"):
        load_export(_write(tmp_path, "empty.json", ""))
    with pytest.raises(PerfInputError, match="unrecognised"):
        load_export(_write(tmp_path, "other.json", {"foo": 1}))
    with pytest.raises(PerfInputError, match="not JSON"):
        load_export(_write(tmp_path, "junk.txt", "just some text\n"))
    with pytest.raises(PerfInputError, match="not a trace event"):
        load_export(_write(tmp_path, "l.jsonl", '{"no_type": 1}\n{"x": 2}\n'))


# -- comparison math -------------------------------------------------------


def test_compare_timings_needs_both_ratio_and_absolute_growth():
    base = {"fast": 2.0, "slow": 1000.0, "gone": 5.0}
    cand = {"fast": 4.0, "slow": 1500.0, "new": 9.0}
    regressions = compare_timings(base, cand, threshold=1.2, min_ms=25.0)
    # "fast" doubled but grew 2ms — under the noise floor, not flagged.
    # "slow" grew 500ms at 1.5x — flagged.  One-sided series never are.
    assert [r["series"] for r in regressions] == ["slow"]
    assert regressions[0]["ratio"] == 1.5


def test_compare_timings_respects_the_threshold():
    base = {"s": 1000.0}
    assert compare_timings(base, {"s": 1150.0}) == []  # +15% < 1.20x
    assert compare_timings(base, {"s": 1300.0})  # +30% regresses
    assert DEFAULT_MIN_MS == 25.0


# -- end-to-end compare ----------------------------------------------------


def test_compare_passes_identical_metrics_exports(tmp_path):
    a = _write(tmp_path, "a.json", _metrics_export())
    b = _write(tmp_path, "b.json", _metrics_export())
    report = compare(a, b)
    assert report["exit_code"] == EXIT_OK
    assert report["regressions"] == []


def test_compare_flags_an_injected_20pct_regression(tmp_path):
    a = _write(tmp_path, "a.json", _metrics_export(stage_wall_s=1.0))
    b = _write(tmp_path, "b.json", _metrics_export(stage_wall_s=1.25))
    report = compare(a, b, threshold=1.20, min_ms=10.0)
    assert report["exit_code"] == EXIT_REGRESSION
    assert report["regressions"][0]["series"] == "stage.monitor-sweep"


def test_compare_rejects_mismatched_kinds(tmp_path):
    metrics = _write(tmp_path, "m.json", _metrics_export())
    bench = _write(tmp_path, "b.json", {"runs": []})
    with pytest.raises(PerfInputError, match="cannot compare"):
        compare(metrics, bench)


def test_check_mode_passes_equal_and_fails_divergent_views(tmp_path):
    a = _write(tmp_path, "a.json", _metrics_export())
    # Same deterministic content, wildly different timings: still OK.
    b = _write(tmp_path, "b.json", _metrics_export(stage_wall_s=99.0))
    assert compare(a, b, check=True)["exit_code"] == EXIT_OK
    # One counter off by one: determinism mismatch.
    c = _write(tmp_path, "c.json", _metrics_export(counters={"c": 6}))
    report = compare(a, c, check=True)
    assert report["exit_code"] == EXIT_REGRESSION
    assert any("counter c" in line for line in report["mismatches"])
    # Divergent week deltas are named by week.
    d = _write(
        tmp_path, "d.json",
        _metrics_export(weeks=[
            {"week": 0, "deltas": {"c": 4}}, {"week": 1, "deltas": {"c": 2}},
        ]),
    )
    report = compare(a, d, check=True)
    assert report["exit_code"] == EXIT_REGRESSION
    assert any("week 0" in m for m in report["mismatches"])


def test_check_mode_requires_metrics_exports(tmp_path):
    t = _write(tmp_path, "t.jsonl", '{"type": "span", "name": "s", "dur_ms": 1}\n')
    with pytest.raises(PerfInputError, match="--check needs metrics"):
        compare(t, t, check=True)


def test_compare_bench_results_by_configuration(tmp_path):
    base = {"runs": [
        {"workers": 1, "mode": "serial", "wall_s": 10.0},
        {"workers": 4, "mode": "fork", "wall_s": 3.0},
    ]}
    cand = json.loads(json.dumps(base))
    cand["runs"][1]["wall_s"] = 4.5  # 1.5x on the parallel config
    a = _write(tmp_path, "a.json", base)
    b = _write(tmp_path, "b.json", cand)
    report = compare(a, b, min_ms=10.0)
    assert report["exit_code"] == EXIT_REGRESSION
    assert report["regressions"][0]["series"] == "workers=4,mode=fork"


# -- CLI exit codes --------------------------------------------------------


def test_cli_perf_exit_codes(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _metrics_export())
    b = _write(tmp_path, "b.json", _metrics_export())
    slow = _write(tmp_path, "slow.json", _metrics_export(stage_wall_s=2.0))
    bad = _write(tmp_path, "bad.json", "not json")
    assert main(["perf", a, b]) == 0
    assert main(["perf", a, b, "--check"]) == 0
    assert main(["perf", a, slow, "--min-ms", "10"]) == 1
    assert main(["perf", a, bad]) == 2
    err = capsys.readouterr().err
    assert "perf:" in err  # malformed inputs explain themselves


def test_cli_perf_check_catches_counter_drift(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _metrics_export())
    c = _write(tmp_path, "c.json", _metrics_export(counters={"c": 7}))
    assert main(["perf", a, c, "--check"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "counter c" in out
