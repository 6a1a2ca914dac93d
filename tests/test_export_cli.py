"""Tests for the JSON export and the CLI."""

import io
import json

import pytest

from repro.cli import _build_parser, _config_from_args, main
from tests.test_pipeline_determinism import ground_truth_to_json


def test_ground_truth_export(tiny_result):
    payload = json.loads(ground_truth_to_json(tiny_result.ground_truth))
    assert len(payload["hijacks"]) == len(tiny_result.ground_truth)
    row = payload["hijacks"][0]
    assert set(row) == {"fqdn", "attacker_group", "service", "provider",
                        "taken_over_at", "remediated_at"}


def test_cli_run(tmp_path):
    out = io.StringIO()
    export_path = tmp_path / "dataset.json"
    code = main(
        ["run", "--scale", "tiny", "--seed", "3", "--export", str(export_path)],
        out=out,
    )
    assert code == 0
    text = out.getvalue()
    assert "Scenario summary" in text
    assert "abused FQDNs detected" in text
    payload = json.loads(export_path.read_text(encoding="utf-8"))
    assert len(payload["records"]) > 0


def test_cli_report():
    out = io.StringIO()
    assert main(["report", "--scale", "tiny", "--seed", "3"], out=out) == 0
    text = out.getvalue()
    assert "Figure 2" in text
    assert "Figure 3" in text


def test_cli_audit():
    out = io.StringIO()
    assert main(["audit", "--scale", "tiny", "--seed", "3"], out=out) == 0
    assert "Attack surface" in out.getvalue()


def test_cli_countermeasure_flag():
    out = io.StringIO()
    assert main(
        ["run", "--scale", "tiny", "--seed", "3", "--randomize-names"], out=out
    ) == 0
    takeover_line = next(
        line for line in out.getvalue().splitlines() if "actual takeovers" in line
    )
    assert takeover_line.split()[-1] == "0"


@pytest.mark.parametrize("argv, bound", [
    (["run", "--checkpoint-every", "0"], "must be 1 or more"),
    (["report", "--checkpoint-every", "0"], "must be 1 or more"),
    (["run", "--checkpoint-every", "-2"], "must be 1 or more"),
    (["run", "--trace-sample", "0"], "must be 1 or more"),
    (["run", "--weeks", "-1"], "must be 0 or more"),
    (["run", "--retries", "-1"], "must be 0 or more"),
    (["run", "--faults", "2"], "must be within [0, 1]"),
    (["audit", "--faults", "-1"], "must be within [0, 1]"),
    (["pipeline", "--faults", "1.5"], "must be within [0, 1]"),
    (["run", "--retries", "two"], "invalid int value"),
])
def test_cli_rejects_out_of_range_numbers_when_parsing(argv, bound, capsys):
    """Exit 2 with one usage-error line, before any world is built."""
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--scale", "tiny"], out=io.StringIO())
    assert exited.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert error.startswith(f"repro {argv[0]}: error: argument {argv[1]}: {bound}")


@pytest.mark.parametrize("flag", [
    ["run", "--workers", "2"], ["run", "--worker-faults"],
    ["run", "--shard-deadline", "5"], ["report", "--analysis-workers", "2"],
    ["run", "--incremental"], ["report", "--incremental"],
])
def test_cli_rejects_removed_fork_flags(flag, capsys):
    """Nothing forks and every sweep uses the touch ledger: the removed
    fork and sweep-mode flags are unknown (exit 2)."""
    command, *removed = flag
    with pytest.raises(SystemExit) as exited:
        main([command, "--scale", "tiny", *removed], out=io.StringIO())
    assert exited.value.code == 2
    error = capsys.readouterr().err.strip().splitlines()[-1]
    assert error == f"repro: error: unrecognized arguments: {' '.join(removed)}"


def test_cli_range_edges_keep_their_meaning():
    args = _build_parser().parse_args([
        "run", "--weeks", "0", "--retries", "0", "--faults", "1",
        "--checkpoint-every", "1", "--trace-sample", "1",
    ])
    config = _config_from_args(args)
    assert config.weeks == 0
    assert config.monitor.retry.max_attempts == 1  # --retries 0: one attempt
    assert config.faults.enabled and config.faults.http_503_rate == 1
    assert (args.checkpoint_every, args.trace_sample) == (1, 1)


@pytest.mark.parametrize("command", ["run", "report"])
def test_cli_metrics_json_exports_one_cost_row_per_stage_and_task(tmp_path, command):
    """``resources.stages`` comes from the engine's stage metrics: one
    row per ticked stage with one call a week, plus one row per analysis
    task that ran (``report`` only), name-sorted."""
    from repro.analysis import default_registry
    from repro.core.scenario import ScenarioConfig, build_scenario

    path = tmp_path / "metrics.json"
    argv = [command, "--scale", "tiny", "--weeks", "2", "--metrics-json", str(path)]
    assert main(argv, out=io.StringIO()) == 0
    stages = json.loads(path.read_text(encoding="utf-8"))["resources"]["stages"]
    assert list(stages) == sorted(stages)
    for row in stages.values():
        assert set(row) == {"calls", "cpu_s", "wall_s"}
    engine_stages = {stage.name for stage in build_scenario(ScenarioConfig.tiny()).stages}
    ticked = {name: row for name, row in stages.items() if name in engine_stages}
    assert set(ticked) == engine_stages
    assert all(row["calls"] == 2 for row in ticked.values())
    analyses = {name: row for name, row in stages.items() if name.startswith("analysis.")}
    assert set(stages) == set(ticked) | set(analyses)
    if command == "run":
        assert analyses == {}
    else:
        assert set(analyses) == {f"analysis.{name}" for name in default_registry().names()}
        assert all(row["calls"] == 1 for row in analyses.values())
