"""Pareto fronts over the 2-D (core, memory) frequency grid."""

import numpy as np
import pytest

from repro.pareto.front import (
    ParetoFront,
    ParetoPoint,
    extract_front,
    half_bin_tolerance,
)

# A hand-built 2x3 (mem x core) grid, flattened. Rows: mem 810 then 1215.
#   speedup:  810 -> (0.5, 0.8, 1.0)   1215 -> (0.6, 1.0, 1.3)
#   energy:   810 -> (0.6, 0.7, 1.2)   1215 -> (0.9, 1.0, 1.4)
# Non-dominated: (0.5,0.6,@300/810), (0.8,0.7,@900/810), (1.0,1.2,@1410/810)
# is dominated by (1.0,1.0,@900/1215); front ends at (1.3,1.4,@1410/1215).
SPEEDUPS = [0.5, 0.8, 1.0, 0.6, 1.0, 1.3]
ENERGIES = [0.6, 0.7, 1.2, 0.9, 1.0, 1.4]
CORES = [300.0, 900.0, 1410.0, 300.0, 900.0, 1410.0]
MEMS = [810.0, 810.0, 810.0, 1215.0, 1215.0, 1215.0]


@pytest.fixture
def front():
    return extract_front(SPEEDUPS, ENERGIES, CORES, MEMS)


class TestExtraction:
    def test_front_is_the_non_dominated_set(self, front):
        assert [(p.freq_mhz, p.mem_freq_mhz) for p in front] == [
            (300.0, 810.0),
            (900.0, 810.0),
            (900.0, 1215.0),
            (1410.0, 1215.0),
        ]

    def test_points_carry_both_clocks(self, front):
        best = front.max_speedup_point()
        assert isinstance(best, ParetoPoint)
        assert best.freq_mhz == 1410.0
        assert best.mem_freq_mhz == 1215.0
        assert (best.freq_mhz, best.mem_freq_mhz) == (1410.0, 1215.0)

    def test_front_type_and_parallel_arrays(self, front):
        assert isinstance(front, ParetoFront)
        assert np.array_equal(front.mem_freqs_mhz, [810.0, 810.0, 1215.0, 1215.0])
        assert front.freqs_mhz.shape == front.mem_freqs_mhz.shape

    def test_inherited_consistency_invariant(self, front):
        assert front.is_consistent()

    def test_length_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            extract_front(SPEEDUPS, ENERGIES, CORES, MEMS[:-1])

    def test_exact_duplicates_are_reported_once(self):
        f = extract_front(
            [1.0, 1.0], [0.5, 0.5], [900.0, 900.0], [810.0, 810.0]
        )
        assert len(f) == 1

    def test_same_objectives_from_different_pairs_keep_one(self):
        # Two distinct (core, mem) pairs landing on the exact same
        # objective point: domination is judged in the objective plane,
        # so only the first is kept (matching pareto_mask's tie rule).
        f = extract_front(
            [1.0, 1.0], [0.5, 0.5], [900.0, 1410.0], [1215.0, 810.0]
        )
        assert len(f) == 1


class TestContainsPair:
    def test_exact_membership(self, front):
        assert front.contains_freq(900.0, mem_freq_mhz=810.0)
        assert not front.contains_freq(1410.0, mem_freq_mhz=810.0)  # dominated
        assert not front.contains_freq(300.0, mem_freq_mhz=1215.0)  # dominated

    def test_axes_must_match_jointly(self, front):
        # 300 MHz core is on the front and 1215 MHz mem is on the front,
        # but never together.
        assert front.contains_freq(300.0)
        assert np.any(front.mem_freqs_mhz == 1215.0)
        assert not front.contains_freq(300.0, mem_freq_mhz=1215.0)

    def test_separate_memory_tolerance(self, front):
        # Core within the default tolerance, memory 100 MHz off: only a
        # widened mem_tol_mhz accepts it.
        assert not front.contains_freq(900.0, mem_freq_mhz=910.0)
        assert front.contains_freq(900.0, mem_freq_mhz=910.0, mem_tol_mhz=135.0)

    def test_half_bin_tolerances_per_axis(self, front):
        core_tol = half_bin_tolerance(CORES)
        mem_tol = half_bin_tolerance([810.0, 945.0, 1080.0, 1215.0])
        assert front.contains_freq(
            900.0 + 0.4 * core_tol, tol_mhz=core_tol,
            mem_freq_mhz=810.0 + mem_tol, mem_tol_mhz=mem_tol,
        )
        assert not front.contains_freq(
            900.0, tol_mhz=core_tol, mem_freq_mhz=810.0 + 2.1 * mem_tol, mem_tol_mhz=mem_tol
        )

    def test_empty_front_contains_nothing(self):
        f = ParetoFront([])
        assert not f.contains_freq(900.0, mem_freq_mhz=810.0)


def test_reference_mem_only_grid_matches_the_1d_front():
    """A grid with a single memory row reduces to the classic 1-D front."""
    sp, en, fr = SPEEDUPS[3:], ENERGIES[3:], CORES[3:]
    grid = extract_front(sp, en, fr, [1215.0] * 3)
    flat = extract_front(sp, en, fr)
    assert np.array_equal(grid.speedups, flat.speedups)
    assert np.array_equal(grid.energies, flat.energies)
    assert np.array_equal(grid.freqs_mhz, flat.freqs_mhz)
    assert np.all(grid.mem_freqs_mhz == 1215.0)
