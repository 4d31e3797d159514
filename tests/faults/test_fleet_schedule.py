"""``fleet_failure_schedule`` is pinned cell by cell to its definition.

The schedule hashes each GPU's constant prefix once and decodes a whole
GPU's digests in one NumPy pass; every cell must still equal the
per-cell oracle ``fault_hash_unit(seed, f"{site_prefix}.{g}", t) < p``.
"""

import numpy as np
import pytest

from repro.faults import fault_hash_unit, fleet_failure_schedule


def _units(seed, n_gpus, n_ticks, site_prefix="fleet.gpu"):
    """The per-cell oracle: ``fault_hash_unit`` for every ``(t, g)``."""
    units = np.empty((n_ticks, n_gpus))
    for g in range(n_gpus):
        for t in range(n_ticks):
            units[t, g] = fault_hash_unit(seed, f"{site_prefix}.{g}", t)
    return units


def _assert_matches_oracle(seed, n_gpus, n_ticks, probability, **kwargs):
    grid = fleet_failure_schedule(seed, n_gpus, n_ticks, probability, **kwargs)
    expected = _units(seed, n_gpus, n_ticks, **kwargs) < probability
    assert grid.shape == (n_ticks, n_gpus)
    assert grid.dtype == np.bool_
    assert grid.tobytes() == expected.tobytes()
    return grid


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**62])
@pytest.mark.parametrize("probability", [0.0005, 0.05, 0.5])
def test_every_cell_equals_fault_hash_unit(seed, probability):
    _assert_matches_oracle(seed, 37, 53, probability)


def test_non_default_site_prefix():
    grid = _assert_matches_oracle(11, 9, 40, 0.3, site_prefix="rack.7.gpu")
    assert grid.tobytes() != fleet_failure_schedule(11, 9, 40, 0.3).tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (0, 5), (5, 0), (0, 0)])
def test_tiny_and_zero_size_grids(shape):
    n_gpus, n_ticks = shape
    _assert_matches_oracle(3, n_gpus, n_ticks, 0.5)


def test_probability_one_fires_every_cell():
    assert _assert_matches_oracle(2**62, 37, 53, 1.0).all()


def test_tiny_probability_matches_the_oracle():
    _assert_matches_oracle(5, 37, 53, 1e-12)


def test_threshold_is_strict():
    """A probability equal to a cell's unit must not fire that cell."""
    seed, g, t = 123, 4, 17
    unit = fault_hash_unit(seed, f"fleet.gpu.{g}", t)
    grid = _assert_matches_oracle(seed, 8, 30, unit)
    assert not grid[t, g]
    assert fleet_failure_schedule(seed, 8, 30, np.nextafter(unit, 1.0))[t, g]
