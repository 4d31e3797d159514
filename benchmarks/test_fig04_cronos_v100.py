"""Figure 4: Cronos on NVIDIA V100, smallest vs largest grid.

10x4x4 and 160x64x64: as grid size increases, the chance of energy
saving at near-zero speedup loss grows (paper §3.1.1).
"""

import pytest

from benchmarks.conftest import BENCH_REPETITIONS, write_artifact
from repro.cronos.app import CronosApplication
from repro.experiments import characterization_series, render_characterization


@pytest.mark.benchmark(group="fig04")
def test_fig04a_small_grid(benchmark, v100):
    def run():
        return characterization_series(
            CronosApplication.from_size(10, 4, 4), v100, repetitions=BENCH_REPETITIONS
        )

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    write_artifact(
        "fig04a_cronos_10x4x4_v100.txt",
        render_characterization(series, "Fig 4a", max_rows=40),
    )
    sp = series.result.speedups()
    assert sp.max() <= 1.03  # no speedup from over-clocking


@pytest.mark.benchmark(group="fig04")
def test_fig04b_large_grid_and_comparison(benchmark, v100):
    def run():
        return characterization_series(
            CronosApplication.from_size(160, 64, 64), v100, repetitions=BENCH_REPETITIONS
        )

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    write_artifact(
        "fig04b_cronos_160x64x64_v100.txt",
        render_characterization(series, "Fig 4b", max_rows=40),
    )
    # the headline comparison: the large grid saves more at <=1% loss
    small = characterization_series(
        CronosApplication.from_size(10, 4, 4), v100, repetitions=BENCH_REPETITIONS
    )
    for s in (series, small):
        assert s.front.is_consistent()
    sp_l, ne_l = series.result.speedups(), series.result.normalized_energies()
    sp_s, ne_s = small.result.speedups(), small.result.normalized_energies()
    best_l = ne_l[sp_l >= 0.99].min()
    best_s = ne_s[sp_s >= 0.99].min()
    assert best_l < best_s  # higher chance of energy saving on large grids
    assert best_l <= 0.88
