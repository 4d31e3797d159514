"""Unit tests for the paper's workload configurations."""

from repro.experiments import configs


def test_cronos_grid_ladder_matches_paper():
    """§5.1: five grids from 10x4x4 to 160x64x64, doubling each step."""
    grids = configs.CRONOS_GRID_SIZES
    assert len(grids) == 5
    assert grids[0] == (10, 4, 4)
    assert grids[-1] == (160, 64, 64)
    for (a, b, c), (d, e, f) in zip(grids, grids[1:]):
        assert (d, e, f) == (2 * a, 2 * b, 2 * c)


def test_ligen_grid_matches_paper():
    """§5.1 tuple grid, plus l=256 used by Figs 10/13."""
    assert set(configs.LIGEN_LIGAND_COUNTS) >= {2, 16, 1024, 4096, 10000}
    assert 256 in configs.LIGEN_LIGAND_COUNTS
    assert configs.LIGEN_ATOM_COUNTS == (31, 63, 71, 89)
    assert configs.LIGEN_FRAGMENT_COUNTS == (4, 8, 16, 20)


def test_fig13_ligen_validation_inputs():
    """Figure 13c/d: 12 inputs = {31,89} x {4,20} x {256,4096,10000}."""
    val = configs.FIG13_LIGEN_VALIDATION
    assert len(val) == 12
    assert val[0] == (31, 4, 256)
    assert val[-1] == (89, 20, 10000)
    assert len(set(val)) == 12


def test_fig13_cronos_validation_covers_all_grids():
    assert configs.FIG13_CRONOS_VALIDATION == configs.CRONOS_GRID_SIZES


def test_small_large_inputs():
    assert configs.LIGEN_SMALL_INPUT == (256, 31, 4)
    assert configs.LIGEN_LARGE_INPUT == (10000, 89, 20)
    assert configs.CRONOS_SMALL_GRID == (10, 4, 4)
    assert configs.CRONOS_LARGE_GRID == (160, 64, 64)


def test_labels():
    assert configs.cronos_label(160, 64, 64) == "160x64x64"
    assert configs.ligen_label(31, 4, 256) == "31x4x256"


def test_protocol_constants():
    assert configs.DEFAULT_REPETITIONS == 5  # paper protocol
    assert 2 <= configs.DEFAULT_TRAIN_FREQ_COUNT <= 196
