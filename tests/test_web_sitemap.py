"""Tests for sitemap rendering and parsing."""

from datetime import datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.web.sitemap import Sitemap, parse_sitemap, sitemap_summary


def test_add_and_urls():
    sitemap = Sitemap()
    sitemap.add("http://x.com/a", lastmod=datetime(2020, 5, 1))
    sitemap.add("http://x.com/b")
    assert len(sitemap) == 2
    assert sitemap.urls() == ["http://x.com/a", "http://x.com/b"]


def test_render_parse_roundtrip():
    sitemap = Sitemap()
    sitemap.add("http://x.com/a", lastmod=datetime(2020, 5, 1))
    sitemap.add("http://x.com/b")
    parsed = parse_sitemap(sitemap.render())
    assert parsed.urls() == sitemap.urls()
    assert parsed.entries[0].lastmod == "2020-05-01"
    assert parsed.entries[1].lastmod is None


def test_parse_tolerates_garbage():
    assert parse_sitemap("<urlset><url>no loc</url></urlset>").urls() == []
    assert parse_sitemap("not xml").urls() == []


def test_size_grows_with_entries():
    """The 100 KB-jump signal relies on size scaling with bulk uploads."""
    small = Sitemap()
    big = Sitemap()
    for index in range(10):
        small.add(f"http://x.com/page-{index}")
    for index in range(2000):
        big.add(f"http://x.com/slot-gacor-{index}.html")
    assert big.size_bytes() > small.size_bytes() * 50
    assert big.size_bytes() > 100 * 1024


@given(st.lists(st.integers(min_value=0, max_value=10**6), max_size=50))
def test_roundtrip_property(page_ids):
    sitemap = Sitemap()
    for page_id in page_ids:
        sitemap.add(f"http://example.com/p{page_id}")
    parsed = parse_sitemap(sitemap.render())
    assert parsed.urls() == sitemap.urls()


# -- the one-pass summary against the full parse it replaced ---------------


def _parsed_summary(text, cap):
    """The monitor's pre-summary extraction: parse every entry, then cut."""
    sitemap = parse_sitemap(text)
    return len(sitemap), tuple(sitemap.urls()[:cap])


#: Hostile shapes an attacker-served body can take.
_FRAGMENTS = [
    "<url>", "</url>", "<loc>", "</loc>", "<urlset>", "</urlset>",
    "<url><loc>http://x.com/a</loc></url>",
    "<url><loc>http://x.com/never-closed</loc>",
    "<url><url><loc>http://x.com/nested</loc></url></url>",
    "<url><loc>http://x.com/\n  across-lines</loc></url>",
    "<url><loc></loc></url>",
    "<url><loc>   \t </loc></url>",
    "<url><loc>  http://x.com/padded  </loc><lastmod>2020-01-01</lastmod></url>",
    "<url><lastmod>2020-01-01</lastmod></url>",
    "\n", " ",
]


@pytest.mark.parametrize("cap", [0, 1, 10])
@settings(max_examples=100, deadline=None)
@given(text=st.one_of(
    st.text(),
    st.lists(st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=5)),
             max_size=40).map("".join),
))
def test_summary_equals_parse_on_any_text(cap, text):
    assert sitemap_summary(text, cap) == _parsed_summary(text, cap)


@pytest.mark.parametrize("cap", [0, 1, 10])
def test_summary_equals_parse_on_a_bulk_upload(cap):
    sitemap = Sitemap()
    for index in range(500):
        sitemap.add(f"http://x.com/slot-{index}.html", lastmod=datetime(2020, 5, 1))
    text = sitemap.render()
    assert sitemap_summary(text, cap) == _parsed_summary(text, cap)
    assert sitemap_summary(text, cap)[0] == 500
