"""Unit tests for the plain-text report renderers."""

from repro.metrics.report import render_cdf, render_series, render_table


class TestRenderTable:
    def test_basic_alignment(self):
        text = render_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "name" in lines[0]
        assert set(lines[1]) == {"-"}

    def test_title(self):
        text = render_table(["x"], [[1.0]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_format(self):
        text = render_table(["x"], [[1.23456]], float_format="{:.1f}")
        assert "1.2" in text
        assert "1.23" not in text

    def test_non_float_cells_stringified(self):
        text = render_table(["x", "y"], [["label", 7]])
        assert "label" in text
        assert "7" in text

    def test_wide_cells_stretch_column(self):
        text = render_table(["x"], [["averyverylongvalue"]])
        header, rule, row = text.splitlines()
        assert len(header) == len(row)


class TestRenderCdf:
    def test_includes_all_series(self):
        text = render_cdf({"fast": [1.0, 2.0], "slow": [10.0, 20.0]})
        assert "fast" in text and "slow" in text
        assert "p50" in text

    def test_empty_series_rendered_as_dash(self):
        text = render_cdf({"none": []})
        assert "-" in text


class TestRenderSeries:
    def test_rows_match_x_values(self):
        text = render_series("n", [10, 20], {"y": [1.0, 2.0]})
        lines = text.splitlines()
        assert "10" in lines[2]
        assert "20" in lines[3]

    def test_short_series_padded_with_dash(self):
        text = render_series("n", [10, 20], {"y": [1.0]})
        assert "-" in text.splitlines()[-1]
