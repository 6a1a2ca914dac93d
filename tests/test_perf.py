"""Tests for the ``repro perf`` determinism gate.

Covers input loading (metrics exports accepted; JSONL traces, Chrome
exports, bench results and the malformed rejects refused), the
deterministic-view diff, and the CLI exit-code contract the CI job
builds on: 0 equal views, 1 divergence, 2 malformed input.
"""

import json

import pytest

from repro.cli import main
from repro.obs.perf import (
    EXIT_MALFORMED,
    EXIT_OK,
    EXIT_REGRESSION,
    PerfInputError,
    compare,
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


# -- loading ---------------------------------------------------------------


def test_load_export_classifies_every_kind(tmp_path):
    # Only metrics exports are gate input; every other telemetry file
    # the program or its benches write is malformed input (exit 2).
    metrics = _write(tmp_path, "m.json", _metrics_export())
    assert load_export(metrics)["schema"] == "repro.metrics/1"
    trace = _write(
        tmp_path, "t.jsonl",
        '{"type": "span", "name": "s", "dur_ms": 2.0}\n'
        '{"type": "metrics", "name": "metrics"}\n',
    )
    chrome = _write(tmp_path, "c.json", {"traceEvents": [], "displayTimeUnit": "ms"})
    bench = _write(tmp_path, "b.json", {"runs": [{"workers": 1, "wall_s": 1.0}]})
    for other in (trace, chrome, bench):
        with pytest.raises(PerfInputError):
            load_export(other)
        assert main(["perf", metrics, other]) == EXIT_MALFORMED
        assert main(["perf", other, metrics]) == EXIT_MALFORMED


def test_load_export_rejects_malformed_inputs(tmp_path):
    with pytest.raises(PerfInputError, match="cannot read"):
        load_export(str(tmp_path / "absent.json"))
    with pytest.raises(PerfInputError, match="empty"):
        load_export(_write(tmp_path, "empty.json", ""))
    with pytest.raises(PerfInputError, match="not a repro.metrics export"):
        load_export(_write(tmp_path, "other.json", {"foo": 1}))
    with pytest.raises(PerfInputError, match="not JSON"):
        load_export(_write(tmp_path, "junk.txt", "just some text\n"))
    with pytest.raises(PerfInputError, match="not JSON"):
        load_export(_write(tmp_path, "l.jsonl", '{"no_type": 1}\n{"x": 2}\n'))


# -- end-to-end compare ----------------------------------------------------


def test_compare_passes_identical_metrics_exports(tmp_path):
    a = _write(tmp_path, "a.json", _metrics_export())
    b = _write(tmp_path, "b.json", _metrics_export())
    report = compare(a, b)
    assert report["exit_code"] == EXIT_OK
    assert report["mismatches"] == []


def test_check_mode_passes_equal_and_fails_divergent_views(tmp_path):
    a = _write(tmp_path, "a.json", _metrics_export())
    # Same deterministic content, wildly different timings: still OK.
    b = _write(tmp_path, "b.json", _metrics_export(stage_wall_s=99.0))
    assert compare(a, b)["exit_code"] == EXIT_OK
    # One counter off by one: determinism mismatch.
    c = _write(tmp_path, "c.json", _metrics_export(counters={"c": 6}))
    report = compare(a, c)
    assert report["exit_code"] == EXIT_REGRESSION
    assert any("counter c" in line for line in report["mismatches"])
    # Divergent week deltas are named by week.
    d = _write(
        tmp_path, "d.json",
        _metrics_export(weeks=[
            {"week": 0, "deltas": {"c": 4}}, {"week": 1, "deltas": {"c": 2}},
        ]),
    )
    report = compare(a, d)
    assert report["exit_code"] == EXIT_REGRESSION
    assert any("week 0" in m for m in report["mismatches"])


def test_check_mode_requires_metrics_exports(tmp_path):
    t = _write(tmp_path, "t.jsonl", '{"type": "span", "name": "s", "dur_ms": 1}\n')
    m = _write(tmp_path, "m.json", _metrics_export())
    with pytest.raises(PerfInputError, match="not a repro.metrics export"):
        compare(t, t)
    with pytest.raises(PerfInputError, match="not a repro.metrics export"):
        compare(m, t)


# -- CLI exit codes --------------------------------------------------------


def test_cli_perf_exit_codes(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _metrics_export())
    b = _write(tmp_path, "b.json", _metrics_export())
    slow = _write(tmp_path, "slow.json", _metrics_export(stage_wall_s=2.0))
    bad = _write(tmp_path, "bad.json", "not json")
    assert main(["perf", a, b]) == 0
    # A slower run with the same counters is not a verdict.
    assert main(["perf", a, slow]) == 0
    assert main(["perf", a, bad]) == 2
    err = capsys.readouterr().err
    assert "perf:" in err  # malformed inputs explain themselves


def test_cli_perf_check_catches_counter_drift(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _metrics_export())
    c = _write(tmp_path, "c.json", _metrics_export(counters={"c": 7}))
    assert main(["perf", a, c]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "counter c" in out


@pytest.mark.parametrize("flag", [["--check"], ["--threshold", "3.0"], ["--min-ms", "10"]])
def test_cli_perf_rejects_removed_timing_flags(tmp_path, flag, capsys):
    """The gate has one mode: the timing knobs and ``--check`` are
    unknown arguments (exit 2)."""
    a = _write(tmp_path, "a.json", _metrics_export())
    with pytest.raises(SystemExit) as exited:
        main(["perf", a, a, *flag])
    assert exited.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert error == f"repro: error: unrecognized arguments: {' '.join(flag)}"
