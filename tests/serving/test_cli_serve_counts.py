"""``repro serve`` rejects worker counts below 1 and has no scale-out flags.

``--workers 0`` used to serve serially and report ``with 0 worker(s)``,
while ``--pool`` and ``--batch-size`` below 1 were already errors. The
service runs in the calling process behind one cache lock, so
``--processes`` and ``--cache-shards`` are unknown options.
"""

import pytest

from repro.cli import main

GRID = ["--freq-min", "400", "--freq-max", "1500", "--freq-points", "12"]


@pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--workers", "-2")])
def test_count_below_one_exits_before_serving(registry, capsys, flag, value):
    rc = main(
        ["serve", "--registry", str(registry.root), "--name", "toy",
         "--requests", "10", flag, value, *GRID]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 1, got {value}\n"


@pytest.mark.parametrize("flag, value", [("--processes", "2"), ("--cache-shards", "4")])
def test_scale_out_flag_is_an_unknown_option(registry, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(
            ["serve", "--registry", str(registry.root), "--name", "toy",
             "--requests", "10", flag, value, *GRID]
        )
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err
