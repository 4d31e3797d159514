"""Unit tests for the figure-data builders."""

import pytest

from repro.cronos.app import CronosApplication
from repro.experiments.figures import (
    characterization_series,
    ligen_raw_scaling,
    pareto_prediction_series,
)
from repro.ligen.app import LigenApplication


class TestCharacterizationSeries:
    def test_rows_structure(self, ideal_v100_dev, small_freqs):
        app = LigenApplication(256, 31, 4)
        series = characterization_series(
            app, ideal_v100_dev, freqs_mhz=small_freqs, repetitions=1
        )
        rows = series.rows()
        assert len(rows) == len(small_freqs)
        freq, sp, ne, on_front = rows[0]
        assert isinstance(on_front, bool)
        assert sp > 0 and ne > 0

    def test_front_points_flagged(self, ideal_v100_dev, small_freqs):
        app = CronosApplication.from_size(20, 8, 8, n_steps=5)
        series = characterization_series(
            app, ideal_v100_dev, freqs_mhz=small_freqs, repetitions=1
        )
        flags = [r[3] for r in series.rows()]
        assert any(flags)
        assert len(series.front) == sum(flags)


class TestLigenRawScaling:
    def test_grid_of_series(self, ideal_v100_dev, small_freqs):
        points = ligen_raw_scaling(
            ideal_v100_dev,
            n_ligands=1000,
            atom_counts=[31, 89],
            fragment_counts=[4, 20],
            freqs_mhz=small_freqs[:3],
            repetitions=1,
        )
        assert len(points) == 2 * 2 * 3

    def test_energy_in_kilojoules(self, ideal_v100_dev, small_freqs):
        points = ligen_raw_scaling(
            ideal_v100_dev,
            n_ligands=100000,
            atom_counts=[89],
            fragment_counts=[20],
            freqs_mhz=[1282.0],
            repetitions=1,
        )
        # Fig 6b scale: ~1-3 kJ at the default clock
        assert 0.5 < points[0].energy_kj < 5.0

    def test_monotone_in_fragments(self, ideal_v100_dev):
        """Fig 6: time and energy increase with the fragment count."""
        points = ligen_raw_scaling(
            ideal_v100_dev,
            n_ligands=10000,
            atom_counts=[31],
            fragment_counts=[4, 20],
            freqs_mhz=[1282.0],
            repetitions=1,
        )
        by_frags = {p.fragments: p for p in points}
        assert by_frags[20].time_s > by_frags[4].time_s
        assert by_frags[20].energy_kj > by_frags[4].energy_kj


class TestParetoPredictionSeries:
    def test_summary_keys(self, ideal_v100_dev, small_freqs):
        from repro.modeling.domain import TradeoffPrediction

        app = LigenApplication(256, 31, 4)
        series_data = characterization_series(
            app, ideal_v100_dev, freqs_mhz=small_freqs, repetitions=1
        )
        measured = series_data.result
        perfect = TradeoffPrediction(
            freqs_mhz=measured.freqs_mhz,
            times_s=measured.times_s,
            energies_j=measured.energies_j,
            speedups=measured.speedups(),
            normalized_energies=measured.normalized_energies(),
            baseline_freq_mhz=1282.0,
        )
        series = pareto_prediction_series(measured, perfect, perfect)
        summary = series.summary()
        assert summary["gp_exact_matches"] == summary["ds_exact_matches"]
        assert summary["true_front_size"] >= 1
        assert summary["gp_distance"] == pytest.approx(0.0, abs=1e-12)
