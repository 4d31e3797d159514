"""``repro predict``, ``tune`` and ``advise`` validate their frequency grid.

They share one serving-grid rule: the grid must be non-empty, hold
finite clocks above 0 MHz, and have ``--freq-min < --freq-max`` when it
has two or more points. A bad grid exits 1 with ``error:`` instead of
printing an empty table, repeating one clock, or advising a negative
clock or from a descending grid.
"""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("grid") / "model.npz"
    rc = main(
        [
            "train", "--app", "cronos",
            "--freqs", "4", "--reps", "1", "--trees", "2",
            "--output", str(path),
        ]
    )
    assert rc == 0
    return path


BAD_GRIDS = {
    "negative": ["--freq-min", "-100", "--freq-max", "200", "--freq-points", "3"],
    "empty": ["--freq-points", "0"],
    "zero": ["--freq-min", "0", "--freq-max", "200", "--freq-points", "3"],
    "non-finite": ["--freq-min", "nan", "--freq-max", "200", "--freq-points", "3"],
    "reversed": ["--freq-min", "1500", "--freq-max", "200", "--freq-points", "3"],
    "collapsed": ["--freq-min", "1000", "--freq-max", "1000", "--freq-points", "3"],
}


@pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
@pytest.mark.parametrize("command", ["predict", "tune"])
def test_bad_grid_is_a_clean_error(model_path, command, grid, capsys):
    argv = [command, "--model", str(model_path), "--features", "160,64,64"]
    if command == "tune":
        argv += ["--metric", "min_edp"]
    rc = main(argv + BAD_GRIDS[grid])
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err
    assert "frequency grid" in captured.err
    assert "pin the clock" not in captured.out


@pytest.mark.parametrize("command", ["predict", "tune"])
def test_valid_grid_still_served(model_path, command, capsys):
    argv = [
        command, "--model", str(model_path), "--features", "160,64,64",
        "--freq-min", "210", "--freq-max", "1410", "--freq-points", "5",
    ]
    if command == "tune":
        argv += ["--metric", "min_edp"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert ("pin the clock" in out) if command == "tune" else ("Pareto frequencies" in out)


def test_advise_rejects_a_reversed_grid(model_path, tmp_path, capsys):
    root = str(tmp_path / "registry")
    assert main(
        ["registry", "add", "--root", root, "--model", str(model_path),
         "--name", "cronos", "--app", "cronos"]
    ) == 0
    rc = main(
        ["advise", "--registry", root, "--name", "cronos", "--features", "160,64,64"]
        + BAD_GRIDS["reversed"]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "error:" in captured.err
    assert "frequency grid" in captured.err
