"""Tests for text rendering helpers."""

from repro.core.reporting import percent, render_histogram, render_table


def test_render_table_alignment():
    text = render_table(
        ["service", "abused"], [["azure-web-app", 6288], ["aws-s3", 2227]],
        title="Table 3",
    )
    lines = text.splitlines()
    assert lines[0] == "Table 3"
    assert "service" in lines[1]
    assert "azure-web-app" in lines[3]
    # Columns align: every row has the same separator positions.
    assert len(lines[3].split("  ")[0]) == len("azure-web-app")


def test_render_table_formats_floats():
    text = render_table(["x"], [[1234.5678]])
    assert "1,234.57" in text


def test_render_histogram_scales_bars():
    text = render_histogram([("0-15", 10), ("15-30", 5), ("30-45", 0)])
    lines = text.splitlines()
    assert lines[0].count("#") == 40
    assert lines[1].count("#") == 20
    assert lines[2].count("#") == 0


def test_render_histogram_empty():
    assert render_histogram([]) == ""


def test_percent():
    assert percent(0.755) == "75.5%"
    assert percent(1 / 3, digits=0) == "33%"
