"""Unit tests for the ASCII plot renderer."""

from __future__ import annotations

import pytest

from repro.bench import Series, ascii_plot


class TestSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            Series([1, 2], [1])
        with pytest.raises(ValueError):
            Series([1], [1], glyph="ab")


class TestAsciiPlot:
    def test_basic_render(self):
        plot = ascii_plot(
            [Series([1, 2, 3], [1, 4, 9], "o", "squares")],
            xlabel="x",
            ylabel="y",
            title="T",
        )
        assert "T" in plot
        assert "o squares" in plot
        assert plot.count("o") >= 3  # at least the data points

    def test_points_land_in_correct_corners(self):
        plot = ascii_plot(
            [Series([0, 10], [0, 10], "#")], width=20, height=8
        )
        rows = [l for l in plot.splitlines() if "|" in l]
        # Max y (10) on the first grid row, min y (0) on the last.
        assert "#" in rows[0]
        assert "#" in rows[-1]
        first_cols = rows[0].index("#")
        last_cols = rows[-1].index("#")
        assert first_cols > last_cols  # high point is to the right

    def test_multiple_series_legend(self):
        plot = ascii_plot(
            [
                Series([1], [1], "a", "first"),
                Series([2], [2], "b", "second"),
            ]
        )
        assert "a first" in plot and "b second" in plot

    def test_later_series_draws_on_top(self):
        plot = ascii_plot(
            [Series([1], [1], "x"), Series([1], [1], "y")],
            width=20,
            height=6,
        )
        assert "y" in plot
        grid_lines = [l.split("|", 1)[1] for l in plot.splitlines() if "|" in l]
        assert not any("x" in l for l in grid_lines)

    def test_log_axes(self):
        xs = [1, 10, 100, 1000]
        plot = ascii_plot([Series(xs, xs, "*")], logx=True, logy=True, width=30)
        assert "1.0e+03" in plot or "1000" in plot

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_plot([Series([0, 1], [1, 2], "*")], logx=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_plot([])
        with pytest.raises(ValueError):
            ascii_plot([Series([1], [1])], width=4)

    def test_constant_series(self):
        # Degenerate ranges must not divide by zero.
        plot = ascii_plot([Series([5, 5, 5], [2, 2, 2], "*")])
        assert "*" in plot

    def test_axis_tick_values_present(self):
        plot = ascii_plot(
            [Series([0, 50, 100], [0, 5, 10], "*")], width=40, height=10
        )
        assert "100" in plot  # x max
        assert "10" in plot  # y max
