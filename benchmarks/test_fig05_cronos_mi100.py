"""Figure 5: Cronos on AMD MI100 with the automatic-governor baseline.

The auto performance level is close to the best achievable speedup, but
manual down-clocking saves energy: ~35% at ~10% speedup loss for the
small grid, about 5 points less for the large grid (paper §3.1.1).
"""

import pytest

from benchmarks.conftest import BENCH_REPETITIONS, write_artifact
from repro.cronos.app import CronosApplication
from repro.experiments import characterization_series, render_characterization


@pytest.mark.benchmark(group="fig05")
def test_fig05a_small_grid(benchmark, mi100):
    def run():
        return characterization_series(
            CronosApplication.from_size(10, 4, 4), mi100, repetitions=BENCH_REPETITIONS
        )

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    write_artifact(
        "fig05a_cronos_10x4x4_mi100.txt",
        render_characterization(series, "Fig 5a", max_rows=40),
    )
    assert series.result.baseline_label == "AMD auto freq"
    sp = series.result.speedups()
    ne = series.result.normalized_energies()
    # auto is near-best
    assert sp.max() <= 1.05
    # large energy savings at moderate loss
    assert ne[sp >= 0.88].min() <= 0.75


@pytest.mark.benchmark(group="fig05")
def test_fig05b_large_grid(benchmark, mi100):
    def run():
        return characterization_series(
            CronosApplication.from_size(160, 64, 64), mi100, repetitions=BENCH_REPETITIONS
        )

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    write_artifact(
        "fig05b_cronos_160x64x64_mi100.txt",
        render_characterization(series, "Fig 5b", max_rows=40),
    )
    sp = series.result.speedups()
    ne = series.result.normalized_energies()
    assert sp.max() <= 1.05
    # savings exist but are smaller than the small grid's at matched loss
    small = characterization_series(
        CronosApplication.from_size(10, 4, 4), mi100, repetitions=BENCH_REPETITIONS
    )
    sp_s, ne_s = small.result.speedups(), small.result.normalized_energies()
    loss_band_large = ne[sp >= 0.88]
    loss_band_small = ne_s[sp_s >= 0.88]
    assert loss_band_small.min() < loss_band_large.min()
