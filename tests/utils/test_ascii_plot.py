"""Unit tests for ASCII scatter plotting."""

import pytest

from repro.utils.ascii_plot import ascii_scatter


class TestAsciiScatter:
    def test_basic_render(self):
        out = ascii_scatter([0, 1, 2], [0, 1, 4], x_label="sp", y_label="E", title="T")
        assert "T" in out
        assert "sp" in out and "E" in out
        assert out.count("o") == 3

    def test_highlight_marker(self):
        out = ascii_scatter(
            [0, 1, 2], [0, 1, 2], highlight_mask=[False, True, False]
        )
        assert out.count("*") == 1
        assert out.count("o") == 2

    def test_highlight_wins_collisions(self):
        # two identical points: one highlighted -> the cell shows '*'
        out = ascii_scatter([1.0, 1.0], [1.0, 1.0], highlight_mask=[False, True])
        assert "*" in out
        assert "o" not in out

    def test_axis_ticks_present(self):
        out = ascii_scatter([0.105, 1.24], [0.9, 2.8])
        assert "0.105" in out and "1.24" in out
        assert "0.9" in out and "2.8" in out

    def test_degenerate_single_point(self):
        out = ascii_scatter([1.0], [1.0])
        assert "o" in out

    def test_constant_axis_handled(self):
        out = ascii_scatter([0, 1, 2], [5.0, 5.0, 5.0])
        assert "o" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_scatter([], [])
        with pytest.raises(ValueError):
            ascii_scatter([1, 2], [1])
        with pytest.raises(ValueError):
            ascii_scatter([1], [1], width=4)
        with pytest.raises(ValueError):
            ascii_scatter([1, 2], [1, 2], highlight_mask=[True])

    def test_geometry_monotone_mapping(self):
        """Higher y must land on an earlier (higher) plot row."""
        out = ascii_scatter([0.0, 1.0], [0.0, 10.0], width=10, height=6)
        lines = out.splitlines()
        rows_with_marker = [i for i, l in enumerate(lines) if "o" in l]
        # the y=10 point appears above the y=0 point
        assert rows_with_marker[0] < rows_with_marker[-1]


class TestCharacterizationPlot:
    def test_plot_contains_front(self, ideal_v100_dev, small_freqs):
        from repro.experiments import characterization_series
        from repro.experiments.report import render_characterization_plot
        from repro.ligen.app import LigenApplication

        series = characterization_series(
            LigenApplication(1024, 31, 4), ideal_v100_dev,
            freqs_mhz=small_freqs, repetitions=1,
        )
        out = render_characterization_plot(series, "Fig X")
        assert "Pareto front" in out
        body = out.split("\n", 1)[1]  # the title legend contains one '*'
        # cell collisions can merge highlighted points, never drop them all
        assert 1 <= body.count("*") <= len(series.front)
