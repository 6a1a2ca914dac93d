"""Tests for the threat-intel substrates."""

import random
from datetime import datetime, timedelta

import pytest

from repro.intel.darknet import CookieLeak, DarknetFeed
from repro.intel.shorteners import SHORTENER_DOMAINS, UrlShortener
from repro.intel.virustotal import BinarySample, VirusTotalService
from repro.web.cookies import Cookie

T0 = datetime(2020, 1, 6)


def test_virustotal_flags_accumulate_slowly():
    vt = VirusTotalService(random.Random(1))
    for week in range(150):
        vt.observe_abuse("bad.example.com", T0 + timedelta(weeks=week))
    report = vt.domain_report("bad.example.com")
    # With ~0.5% combined weekly probability most domains stay unflagged
    # for years; three years of exposure yields at most a few flags.
    assert report.flag_count <= 3


def test_virustotal_most_domains_never_flagged():
    vt = VirusTotalService(random.Random(2))
    for index in range(200):
        for week in range(30):
            vt.observe_abuse(f"d{index}.example.com", T0 + timedelta(weeks=week))
    flagged = [
        index for index in range(200)
        if vt.domain_report(f"d{index}.example.com").flag_count >= 1
    ]
    assert len(flagged) < 60  # far fewer than the 200 observed


def test_virustotal_binary_scanning_memoised():
    vt = VirusTotalService(random.Random(3))
    trojan = BinarySample(filename="x.exe", platform="windows", sha256="a" * 64,
                          is_trojan=True, family="SpyLoader")
    benign = BinarySample(filename="slot.apk", platform="android", sha256="b" * 64)
    assert vt.scan_binary(trojan)  # detected by most vendors
    assert vt.scan_binary(benign) == []
    assert vt.scan_binary(trojan) == vt.scan_binary(trojan)


def test_binary_extension():
    assert BinarySample(filename="slot.APK", platform="android", sha256="x").extension == "apk"
    assert BinarySample(filename="noext", platform="android", sha256="x").extension == ""


def test_darknet_feed_queries():
    feed = DarknetFeed()
    auth = Cookie(name="session", value="tok", domain="victim.com", is_authentication=True)
    tracking = Cookie(name="visitor", value="v", domain="victim.com")
    feed.post(CookieLeak(cookie=auth, domain="app.victim.com", victim_ip="1.1.1.1", leaked_at=T0))
    feed.post(CookieLeak(cookie=tracking, domain="app.victim.com", victim_ip="1.1.1.1", leaked_at=T0))
    feed.post(CookieLeak(cookie=auth, domain="other.com", victim_ip="2.2.2.2", leaked_at=T0))
    assert len(feed) == 3
    assert [leak.domain for leak in feed.all_leaks()] == [
        "app.victim.com", "app.victim.com", "other.com",
    ]


def test_shortener_roundtrip_and_stability():
    shortener = UrlShortener(random.Random(4))
    short = shortener.shorten("https://mega-gacor.bet/play?src=x")
    assert short.split("//")[1].split("/")[0] in SHORTENER_DOMAINS
    assert shortener.expand(short) == "https://mega-gacor.bet/play?src=x"
    assert shortener.shorten("https://mega-gacor.bet/play?src=x") == short
    assert len(shortener) == 1
    with pytest.raises(KeyError):
        shortener.expand("https://sh.rt/unknown")
