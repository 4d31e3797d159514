"""``repro serve`` rejects worker and process counts below 1.

``--workers 0`` used to serve serially and report ``with 0 worker(s)``,
and ``--processes 0`` silently served in-process, while ``--pool``,
``--batch-size`` and ``--cache-shards`` below 1 were already errors.
"""

import pytest

from repro.cli import main

GRID = ["--freq-min", "400", "--freq-max", "1500", "--freq-points", "12"]


@pytest.mark.parametrize(
    "flag, value",
    [("--workers", "0"), ("--workers", "-2"), ("--processes", "0"), ("--processes", "-1")],
)
def test_count_below_one_exits_before_serving(registry, capsys, flag, value):
    rc = main(
        ["serve", "--registry", str(registry.root), "--name", "toy",
         "--requests", "10", flag, value, *GRID]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be >= 1, got {value}\n"

