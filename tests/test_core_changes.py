"""Tests for change detection between snapshots."""

from datetime import datetime, timedelta

from repro.core.changes import SITEMAP_JUMP_BYTES, detect_changes
from repro.core.monitoring import SnapshotFeatures

T0 = datetime(2020, 1, 6)
T1 = T0 + timedelta(weeks=1)


def _features(**overrides):
    base = dict(
        fqdn="a.acme.com", at=T0, dns_status="NOERROR",
        cname_chain=("x.azurewebsites.net",), addresses=("40.0.0.1",),
        fetch_status="ok", http_status=200, html_hash="h1", html_size=100,
        title="t", lang="en", keywords=frozenset({"portal"}),
        sitemap_size=1000, sitemap_count=10,
    )
    base.update(overrides)
    return SnapshotFeatures(**base)


def test_first_observation():
    event = detect_changes(None, _features())
    assert event.first_observation
    assert not event.any_change


def test_no_change():
    event = detect_changes(_features(), _features(at=T1))
    assert not event.any_change


def test_dns_change_detected():
    event = detect_changes(_features(), _features(at=T1, addresses=("40.0.0.9",)))
    assert event.dns_changed


def test_reactivation_detected():
    dead = _features(fetch_status="dns-nxdomain", http_status=0, html_hash="",
                     dns_status="NXDOMAIN", addresses=())
    alive = _features(at=T1, html_hash="h2")
    event = detect_changes(dead, alive)
    assert event.reactivated
    assert event.dns_changed


def test_went_dark_detected():
    alive = _features()
    dead = _features(at=T1, fetch_status="dns-nxdomain", http_status=0,
                     dns_status="NXDOMAIN", html_hash="", addresses=())
    event = detect_changes(alive, dead)
    assert event.went_dark
    assert not event.reactivated


def test_content_and_keyword_change():
    before = _features()
    after = _features(at=T1, html_hash="h2", keywords=frozenset({"slot", "judi"}))
    event = detect_changes(before, after)
    assert event.content_changed
    assert event.keywords_changed


def test_language_change():
    event = detect_changes(_features(), _features(at=T1, lang="id", html_hash="h2"))
    assert event.language_changed


def test_sitemap_appearance():
    before = _features(sitemap_count=-1, sitemap_size=-1)
    after = _features(at=T1, sitemap_count=500, sitemap_size=40_000, html_hash="h2")
    assert detect_changes(before, after).sitemap_appeared


def test_sitemap_jump_threshold():
    before = _features(sitemap_size=10_000, sitemap_count=50)
    small = _features(at=T1, sitemap_size=10_000 + SITEMAP_JUMP_BYTES - 1, sitemap_count=80)
    big = _features(at=T1, sitemap_size=10_000 + SITEMAP_JUMP_BYTES, sitemap_count=5000)
    assert not detect_changes(before, small).sitemap_jumped
    assert detect_changes(before, big).sitemap_jumped
