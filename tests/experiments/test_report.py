"""Unit tests for the ASCII report renderers."""

import pytest

from repro.experiments.evaluation import AccuracyRow, RegressorScore
from repro.experiments.figures import (
    RawScalingPoint,
    characterization_series,
)
from repro.experiments.report import (
    render_accuracy_rows,
    render_characterization,
    render_raw_scaling,
    render_regressor_scores,
)
from repro.ligen.app import LigenApplication


@pytest.fixture(scope="module")
def series(small_freqs):
    from repro.synergy import Platform

    dev = Platform.default(seed=3, ideal_sensors=True).get_device("v100")
    return characterization_series(
        LigenApplication(256, 31, 4), dev, freqs_mhz=small_freqs, repetitions=1
    )


class TestRenderCharacterization:
    def test_contains_header_and_rows(self, series):
        out = render_characterization(series, "Fig 1a")
        assert "Fig 1a" in out
        assert "freq_mhz" in out
        assert out.count("\n") >= len(series.rows())

    def test_max_rows_subsamples(self, series):
        out = render_characterization(series, "T", max_rows=3)
        data_lines = out.splitlines()[3:]
        assert len(data_lines) <= 4

    def test_baseline_label_shown(self, series):
        out = render_characterization(series, "T")
        assert "default configuration" in out


class TestRenderRawScaling:
    def test_rows(self):
        pts = [
            RawScalingPoint(atoms=31, fragments=4, freq_mhz=1282.0, time_s=1.5, energy_kj=0.2),
            RawScalingPoint(atoms=89, fragments=20, freq_mhz=600.0, time_s=5.0, energy_kj=0.9),
        ]
        out = render_raw_scaling(pts, "Fig 6")
        assert "Fig 6" in out and "89" in out and "0.9" in out


class TestRenderAccuracy:
    def test_table_contains_ratios(self):
        rows = [
            AccuracyRow(
                label="31x4x256",
                features=(256.0, 4.0, 31.0),
                speedup_mape_gp=0.2,
                speedup_mape_ds=0.01,
                energy_mape_gp=0.1,
                energy_mape_ds=0.005,
            )
        ]
        out = render_accuracy_rows(rows, "Fig 13")
        assert "31x4x256" in out
        assert "20" in out  # ratio 0.2/0.01

    def test_improvement_properties(self):
        row = AccuracyRow("x", (1.0,), 0.2, 0.02, 0.3, 0.01)
        assert row.speedup_improvement == pytest.approx(10.0)
        assert row.energy_improvement == pytest.approx(30.0)


class TestRenderRegressorScores:
    def test_table(self):
        scores = [
            RegressorScore("random_forest", 0.01, 0.02),
            RegressorScore("linear", 0.2, 0.1),
        ]
        out = render_regressor_scores(scores, "5.2.1")
        assert "random_forest" in out and "linear" in out
        assert RegressorScore("a", 0.1, 0.3).combined == pytest.approx(0.2)
