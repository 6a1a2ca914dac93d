"""Tests for incident-timeline reconstruction."""

from repro.core.timeline import build_timeline


def _timelines(result):
    return [build_timeline(result, record.fqdn) for record in result.dataset.records()]


def _first_at(timeline, stage):
    return next((entry.at for entry in timeline.entries if entry.stage == stage), None)


def test_timelines_cover_every_detection(tiny_result):
    timelines = _timelines(tiny_result)
    assert len(timelines) == len(tiny_result.dataset)
    assert all("detected" in timeline.stages for timeline in timelines)


def test_timeline_stage_ordering(tiny_result):
    record = tiny_result.dataset.records()[0]
    timeline = build_timeline(tiny_result, record.fqdn)
    stages = timeline.stages
    assert "taken-over" in stages
    assert "detected" in stages
    # Chronology is sorted.
    times = [entry.at for entry in timeline.entries]
    assert times == sorted(times)
    # Causality: the record dangled before it was taken over, and the
    # takeover happened no later than detection.
    dangled = _first_at(timeline, "record-dangled")
    taken = _first_at(timeline, "taken-over")
    detected = _first_at(timeline, "detected")
    if dangled is not None:
        assert dangled <= taken
    assert taken <= detected or (detected - taken).days <= 0


def test_detection_gap_is_small(tiny_result):
    gaps = []
    for timeline in _timelines(tiny_result):
        taken = _first_at(timeline, "taken-over")
        detected = _first_at(timeline, "detected")
        if taken is not None and detected is not None:
            gaps.append((detected - taken).total_seconds() / 86_400.0)
    assert gaps
    assert sorted(gaps)[len(gaps) // 2] <= 28  # weekly sampling + clustering


def test_remediated_incidents_end_after_takeover(tiny_result):
    for timeline in _timelines(tiny_result):
        remediated = _first_at(timeline, "remediated")
        taken = _first_at(timeline, "taken-over")
        if remediated is not None and taken is not None:
            assert remediated >= taken


def test_render_contains_stages(tiny_result):
    record = tiny_result.dataset.records()[0]
    text = build_timeline(tiny_result, record.fqdn).render()
    assert record.fqdn in text
    assert "taken-over" in text


def test_unknown_fqdn_gives_empty_timeline(tiny_result):
    timeline = build_timeline(tiny_result, "nothing.example.com")
    assert timeline.entries == []
    assert timeline.stages == []
