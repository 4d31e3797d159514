"""``repro campaign`` flags are checked by the campaign schema.

A bad flag value must get the ``SPEC002`` diagnostic the same value gets
in a spec file, naming the field, before anything runs: not an engine or
NumPy error from deep inside the campaign.
"""

import pytest

from repro.cli import main
from repro.errors import SpecValidationError
from repro.specs import campaign_spec_from_cli

BAD_FLAGS = [
    (["--mem-freqs", "0"], "sweep.mem_freqs_mhz[0]: must be > 0, got 0.0"),
    (["--freqs", "-1"], "sweep.freq_count: must be >= 1, got -1"),
    (["--max-retries", "-1"], "engine.max_retries: must be >= 0, got -1"),
    (["--seed", "-5"], "engine.seed: must be >= 0, got -5"),
    (["--reps", "0"], "sweep.repetitions: must be >= 1, got 0"),
]


@pytest.mark.parametrize("flags, message", BAD_FLAGS)
def test_bad_flag_value_is_a_spec002_diagnostic(capsys, flags, message):
    rc = main(["campaign", "--app", "cronos", "--quick", "--no-cache", *flags])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"[SPEC002] {message}" in captured.err
    assert captured.out == ""


def test_every_bad_value_is_reported_in_one_pass():
    with pytest.raises(SpecValidationError) as exc:
        campaign_spec_from_cli("cronos", quick=True, repetitions=0, max_retries=-1, seed=-5)
    assert sorted(d.message.split(":")[0] for d in exc.value.diagnostics) == [
        "engine.max_retries",
        "engine.seed",
        "sweep.repetitions",
    ]


def test_jobs_is_not_a_flag(capsys):
    # Campaigns run in the calling process: --jobs is an unknown option.
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "--app", "cronos", "--quick", "--jobs", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err
