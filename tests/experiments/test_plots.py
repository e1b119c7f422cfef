"""Tests for the ASCII plotting utilities."""

import pytest

from repro.experiments import ascii_bar_chart, ascii_line_chart, ascii_scatter


class TestScatter:
    def test_dimensions(self):
        chart = ascii_scatter([1, 2, 3], [1, 4, 9], width=30, height=8)
        lines = chart.split("\n")
        assert len(lines) == 10  # grid + separator + footer
        assert all(len(line) == 30 for line in lines[:8])

    def test_points_plotted(self):
        chart = ascii_scatter([0, 1], [0, 1], width=10, height=5)
        assert chart.count("*") == 2

    def test_extremes_at_corners(self):
        chart = ascii_scatter([0, 1], [0, 1], width=10, height=5)
        lines = chart.split("\n")
        assert lines[0][9] == "*"  # max x, max y → top right
        assert lines[4][0] == "*"  # min x, min y → bottom left

    def test_footer_ranges(self):
        chart = ascii_scatter([0.5, 2.5], [1.0, 3.0], x_label="GCD", y_label="TCI")
        assert "GCD: [0.5, 2.5]" in chart
        assert "TCI: [1, 3]" in chart

    def test_constant_values_safe(self):
        chart = ascii_scatter([1, 1, 1], [2, 2, 2])
        assert "*" in chart

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_scatter([1], [1, 2])
        with pytest.raises(ValueError):
            ascii_scatter([], [])


class TestLineChart:
    def test_legend_and_markers(self):
        chart = ascii_line_chart({"a": [1, 2, 3], "b": [3, 2, 1]})
        assert "*=a" in chart
        assert "o=b" in chart
        assert "*" in chart and "o" in chart

    def test_decreasing_series_slopes_down(self):
        chart = ascii_line_chart({"loss": [10.0, 5.0, 1.0]}, width=12, height=6)
        lines = chart.split("\n")
        assert lines[0][0] == "*"  # highest value at x=0 (top-left)
        assert lines[5][11] == "*"  # lowest value at the end (bottom-right)

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_line_chart({})
        with pytest.raises(ValueError):
            ascii_line_chart({"a": [1, 2], "b": [1, 2, 3]})
        with pytest.raises(ValueError):
            ascii_line_chart({"a": [1]})


class TestBarChart:
    def test_sorted_descending(self):
        chart = ascii_bar_chart({"low": 0.01, "high": 0.09})
        lines = chart.split("\n")
        assert lines[0].startswith("high")
        assert lines[1].startswith("low")

    def test_negative_bars_marked(self):
        chart = ascii_bar_chart({"up": 0.05, "down": -0.05})
        down_line = [line for line in chart.split("\n") if line.startswith("down")][0]
        assert "-" in down_line.split("|")[1]

    def test_unsorted_preserves_order(self):
        chart = ascii_bar_chart({"b": 0.1, "a": 0.9}, sort=False)
        assert chart.split("\n")[0].startswith("b")

    def test_custom_format(self):
        chart = ascii_bar_chart({"x": 0.5}, fmt="{:.1f}")
        assert "0.5" in chart

    def test_longest_bar_fills_width(self):
        chart = ascii_bar_chart({"big": 1.0, "small": 0.5}, width=20)
        big_line = chart.split("\n")[0]
        assert big_line.count("#") == 20

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_bar_chart({})
