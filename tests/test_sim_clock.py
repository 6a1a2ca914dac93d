"""Tests for the simulation clock."""

from datetime import datetime, timedelta

import pytest

from repro.sim.clock import DEFAULT_END, DEFAULT_START, ClockError, SimClock, month_key


def test_starts_at_configured_instant():
    clock = SimClock(datetime(2020, 3, 1))
    assert clock.now == datetime(2020, 3, 1)
    assert clock.elapsed == timedelta(0)


def test_default_window_is_three_years():
    clock = SimClock()
    assert clock.start == DEFAULT_START
    assert (DEFAULT_END - DEFAULT_START).days >= 156 * 7


def test_advance_moves_forward():
    clock = SimClock(datetime(2020, 1, 6))
    clock.advance(timedelta(days=3))
    assert clock.now == datetime(2020, 1, 9)
    clock.advance_days(4)
    assert clock.now == datetime(2020, 1, 13)


def test_advance_backwards_is_rejected():
    clock = SimClock()
    with pytest.raises(ClockError):
        clock.advance(timedelta(days=-1))


def test_end_before_start_is_rejected():
    with pytest.raises(ClockError):
        SimClock(datetime(2021, 1, 1), datetime(2020, 1, 1))


def test_weekly_ticks_cover_the_window():
    clock = SimClock(datetime(2020, 1, 6), datetime(2020, 3, 2))
    ticks = list(clock.weekly())
    assert ticks[0] == datetime(2020, 1, 6)
    assert all((b - a) == timedelta(weeks=1) for a, b in zip(ticks, ticks[1:]))
    assert len(ticks) == 8
    assert clock.finished()


def test_ticks_requires_positive_step():
    clock = SimClock()
    with pytest.raises(ClockError):
        next(clock.ticks(timedelta(0)))


def test_month_key_format():
    assert month_key(datetime(2021, 3, 9)) == "2021-03"
    assert month_key(datetime(2020, 12, 31)) == "2020-12"
