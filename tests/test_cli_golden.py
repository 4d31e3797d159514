"""Golden-file harness for the whole ``repro`` command line.

``golden/cli.json`` records, for one fixed sequence of tiny invocations
covering every subcommand, each invocation's stdout, stderr and exit
code, plus the parser's option table (per subcommand: every option's
strings, dest, default, type, choices, required flag, nargs, metavar and
help, in declaration order, which is everything ``--help`` renders).
Any refactor of ``repro.cli`` must reproduce it byte for byte.

Only three things are masked: the campaign summary's wall time, the
serving latency percentiles and the temporary directory the sequence
runs in. The sequence is order-dependent (``train`` writes the models
``predict``, ``registry`` and ``advise`` read; ``run`` on the lifecycle
example writes the registry the ``lifecycle`` commands act on), so it
runs as one test in one directory.

Regenerate only after a deliberate change to what the CLI prints:

    PYTHONPATH=src python -m tests.test_cli_golden
"""

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.cli import build_parser, main

HERE = Path(__file__).parent
REPO = HERE.parent
GOLDEN = HERE / "golden" / "cli.json"
EXAMPLES = REPO / "examples" / "specs"

#: A plan whose crashes outlast a zero retry budget: exercises the
#: fault-injection banner, the fault counters and the quarantine warning.
CRASH_PLAN = {
    "format": "repro.fault_plan",
    "schema_version": 1,
    "seed": 2,
    "faults": [{"kind": "worker_crash", "probability": 0.5}],
}

TINY_SWEEP = ["--freqs", "4", "--reps", "1"]
SERVING_GRID = ["--freq-min", "135", "--freq-max", "1597", "--freq-points", "6"]
REG = "{tmp}/registry"
LIFE_REG = "{tmp}/specs/lifecycle_registry"

#: ``(case name, argv)`` in execution order; ``{tmp}`` is the run directory.
CASES = [
    ("characterize-ligen", ["characterize", "--app", "ligen", "--ligands", "512", "--atoms", "31",
                            "--fragments", "4", *TINY_SWEEP, "--max-rows", "6",
                            "--output", "{tmp}/sweep.json"]),
    ("characterize-cronos", ["characterize", "--app", "cronos", "--grid", "10x4x4", "--steps", "2",
                             *TINY_SWEEP]),
    ("characterize-mhd", ["characterize", "--app", "mhd", "--device", "a100", "--grid", "6x12x8",
                          "--steps", "2", *TINY_SWEEP]),
    ("train-1d", ["train", "--app", "cronos", *TINY_SWEEP, "--trees", "4",
                  "--output", "{tmp}/cronos.npz", "--dataset-output", "{tmp}/cronos-train.json"]),
    ("train-2d", ["train", "--app", "mhd", "--device", "a100", *TINY_SWEEP, "--trees", "4",
                  "--mem-freqs", "810,1215", "--output", "{tmp}/m2d.npz"]),
    ("predict", ["predict", "--model", "{tmp}/cronos.npz", "--features", "160,64,64", *SERVING_GRID]),
    ("tune", ["tune", "--model", "{tmp}/cronos.npz", "--features", "160,64,64", *SERVING_GRID,
              "--metric", "min_edp"]),
    ("campaign-cold", ["campaign", "--app", "cronos", "--quick", *TINY_SWEEP,
                       "--cache-dir", "{tmp}/cache"]),
    ("campaign-warm", ["campaign", "--app", "cronos", "--quick", *TINY_SWEEP,
                       "--cache-dir", "{tmp}/cache"]),
    ("campaign-no-replay", ["campaign", "--app", "ligen", "--quick", "--freqs", "3", "--reps", "1",
                            "--no-cache", "--no-replay"]),
    ("campaign-inject", ["campaign", "--app", "ligen", "--quick", "--freqs", "3", "--reps", "1",
                         "--no-cache", "--no-replay", "--inject", "{tmp}/crash.json",
                         "--max-retries", "0"]),
    ("campaign-dataset-output", ["campaign", "--app", "mhd", "--device", "a100", "--quick",
                                 "--freqs", "3", "--reps", "1", "--mem-freqs", "810,1215",
                                 "--no-cache", "--dataset-output", "{tmp}/mhd-ds.json"]),
    ("run-campaign-cronos", ["run", "{tmp}/specs/campaign_cronos_quick.json"]),
    ("run-campaign-mhd", ["run", "{tmp}/specs/campaign_mhd_quick.json",
                          "--dataset-output", "{tmp}/run-mhd-ds.json"]),
    ("run-scenario-chaos", ["run", "{tmp}/specs/scenario_chaos.json"]),
    ("run-scenario-serving", ["run", "{tmp}/specs/scenario_serving.json"]),
    ("run-fleet", ["run", "{tmp}/specs/fleet_smoke.json"]),
    ("run-lifecycle", ["run", "{tmp}/specs/lifecycle_smoke.json"]),
    ("run-check", ["run", "{tmp}/specs/scenario_serving.json", "--check"]),
    ("run-check-only-format", ["run", "{tmp}/specs/device_v100.json"]),
    ("run-fleet-dataset-output", ["run", "{tmp}/specs/fleet_smoke.json",
                                  "--dataset-output", "{tmp}/nope.json"]),
    ("fleet-text", ["fleet", "{tmp}/specs/fleet_smoke.json", "--gpus", "8", "--ticks", "20"]),
    ("fleet-json", ["fleet", "{tmp}/specs/fleet_smoke.json", "--gpus", "8", "--ticks", "20",
                    "--format", "json"]),
    ("fleet-baseline", ["fleet", "{tmp}/specs/fleet_smoke.json", "--gpus", "8", "--ticks", "20",
                        "--baseline", "--static-freq", "1200"]),
    ("fleet-baseline-on-grid", ["fleet", "{tmp}/specs/fleet_smoke.json", "--gpus", "8",
                                "--ticks", "20", "--baseline", "--static-freq", "1231.5"]),
    ("fleet-reference", ["fleet", "{tmp}/specs/fleet_smoke.json", "--gpus", "4", "--ticks", "10",
                         "--mode", "reference"]),
    ("fleet-bad-override", ["fleet", "{tmp}/specs/fleet_smoke.json", "--gpus", "0"]),
    ("registry-add-1d", ["registry", "add", "--root", REG, "--model", "{tmp}/cronos.npz",
                         "--name", "cronos", "--app", "cronos", "--device", "v100",
                         "--train-fingerprint", "f00d"]),
    ("registry-add-2d", ["registry", "add", "--root", REG, "--model", "{tmp}/m2d.npz",
                         "--name", "mhd2d", "--app", "mhd"]),
    ("registry-list", ["registry", "list", "--root", REG]),
    ("registry-list-json", ["registry", "list", "--root", REG, "--format", "json"]),
    ("registry-verify", ["registry", "verify", "--root", REG]),
    ("advise-1d", ["advise", "--registry", REG, "--name", "cronos", "--features", "160,64,64",
                   *SERVING_GRID]),
    ("advise-2d", ["advise", "--registry", REG, "--name", "mhd2d", "--features", "24,48,32",
                   "--mem-freqs", "810,1215", "--freq-min", "210", "--freq-max", "1410",
                   "--freq-points", "5"]),
    ("advise-json", ["advise", "--registry", REG, "--name", "cronos", "--version", "1",
                     "--features", "160,64,64", "--objective", "max_speedup_power",
                     "--power-w", "400", *SERVING_GRID, "--format", "json"]),
    ("advise-infeasible", ["advise", "--registry", REG, "--name", "cronos",
                           "--features", "160,64,64", "--objective", "min_energy_deadline",
                           "--deadline-s", "1e-9", *SERVING_GRID]),
    ("serve", ["serve", "--registry", REG, "--name", "cronos", "--requests", "24",
               "--workers", "1", "--pool", "4", "--features", "160,64,64", *SERVING_GRID]),
    ("serve-processes", ["serve", "--registry", REG, "--name", "cronos", "--requests", "8",
                         "--workers", "1", "--processes", "2", *SERVING_GRID]),
    ("lifecycle-status", ["lifecycle", "status", "--root", LIFE_REG, "--name", "ligen-advisor"]),
    ("lifecycle-status-json", ["lifecycle", "status", "--root", LIFE_REG,
                               "--name", "ligen-advisor", "--format", "json"]),
    ("lifecycle-retrain", ["lifecycle", "retrain", "{tmp}/specs/lifecycle_smoke.json"]),
    ("lifecycle-promote", ["lifecycle", "promote", "--root", LIFE_REG, "--name", "ligen-advisor",
                           "--to-version", "3"]),
    ("lifecycle-rollback", ["lifecycle", "rollback", "--root", LIFE_REG,
                            "--name", "ligen-advisor"]),
    ("lifecycle-ledger", ["lifecycle", "status", "--root", LIFE_REG, "--name", "ligen-advisor"]),
    ("lint-specs", ["lint", "--select", "SPEC", "--no-self-check", "{tmp}/specs"]),
    ("lint-json", ["lint", "--select", "SPEC", "--no-self-check", "--format", "json",
                   "{tmp}/crash.json", "{tmp}/specs/fleet_smoke.json"]),
    ("reproduce-cronos", ["reproduce", "--experiment", "fig13-cronos", "--quick",
                          "--freqs", "3", "--reps", "1", "--trees", "2"]),
    ("reproduce-ligen", ["reproduce", "--experiment", "fig13-ligen", "--quick",
                         "--freqs", "3", "--reps", "1", "--trees", "2"]),
]

_MASKS = (
    (re.compile(r"^(wall time \(s\)\s*: ).*$", re.M), r"\1<masked>"),
    (re.compile(r"^(  latency p50/p95/p99: ).*$", re.M), r"\1<masked>"),
)


def _mask(text, tmp):
    text = text.replace(str(tmp), "<tmp>")
    for pattern, repl in _MASKS:
        text = pattern.sub(repl, text)
    return text


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_cases(tmp):
    """Run every case in ``tmp`` (also the cwd); ``{name: record}``."""
    tmp = Path(tmp)
    shutil.copytree(EXAMPLES, tmp / "specs")
    (tmp / "crash.json").write_text(json.dumps(CRASH_PLAN), encoding="utf-8")
    records = {}
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for name, argv in CASES:
            argv = [arg.replace("{tmp}", str(tmp)) for arg in argv]
            code, out, err = _invoke(argv)
            records[name] = {
                "argv": [_mask(arg, tmp) for arg in argv],
                "exit": code,
                "stdout": _mask(out, tmp),
                "stderr": _mask(err, tmp),
            }
    finally:
        os.chdir(cwd)
    return records


def _plain(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return getattr(value, "__name__", repr(value))


def _actions(parser):
    return [
        {
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": _plain(action.default),
            "type": _plain(action.type),
            "choices": None if action.choices is None else _plain(list(action.choices)),
            "required": action.required,
            "nargs": _plain(action.nargs),
            "metavar": _plain(action.metavar),
            # Python 3.10's BooleanOptionalAction appends this to its help.
            "help": action.help and action.help.replace(" (default: %(default)s)", ""),
        }
        for action in parser._actions
    ]


def option_table():
    """``{command path: {"help": ..., "options": [...]}}`` for every parser."""
    table = {}

    def walk(parser, path, help_text):
        table[path] = {"help": help_text, "options": _actions(parser)}
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                helps = {choice.dest: choice.help for choice in action._choices_actions}
                for name, sub in action.choices.items():
                    walk(sub, f"{path} {name}", helps.get(name))

    walk(build_parser(), "repro", None)
    return table


def golden_values(tmp):
    return {"options": option_table(), "cases": run_cases(tmp)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_option_table_is_unchanged(golden):
    assert option_table() == golden["options"]


def test_every_invocation_prints_what_it_printed(golden, tmp_path):
    records = run_cases(tmp_path)
    assert list(records) == list(golden["cases"])
    for name, record in records.items():
        assert record == golden["cases"][name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = golden_values(tmp)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
