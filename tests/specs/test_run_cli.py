"""End-to-end tests for `repro run` and the JSON side of `repro lint`."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.specs import campaign_spec_from_cli

HERE = Path(__file__).parent
REPO = HERE.parent.parent
EXAMPLES = REPO / "examples" / "specs"
VALID = HERE / "fixtures" / "valid"
INVALID = HERE / "fixtures" / "invalid"


class TestRunCommand:
    def test_spec_run_bit_identical_to_flag_run(self, tmp_path, capsys):
        # The acceptance criterion for the whole subsystem: driving the
        # executor through a spec file and through CLI flags must write
        # byte-identical datasets.
        ds_flags = tmp_path / "flags.json"
        ds_spec = tmp_path / "spec.json"
        rc = main(
            [
                "campaign", "--app", "cronos", "--quick",
                "--freqs", "2", "--reps", "1", "--no-cache",
                "--dataset-output", str(ds_flags),
            ]
        )
        assert rc == 0
        spec = campaign_spec_from_cli("cronos", quick=True, freq_count=2, repetitions=1)
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(json.dumps(spec.as_record(), indent=2))
        rc = main(["run", str(spec_path), "--dataset-output", str(ds_spec)])
        assert rc == 0
        assert ds_flags.read_bytes() == ds_spec.read_bytes()

    def test_scenario_with_objective_prints_advice(self, capsys):
        rc = main(["run", str(VALID / "scenario.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "scenario 'fixture-scenario'" in out
        assert "MHz" in out

    @pytest.mark.parametrize(
        "objective", [{"kind": "tradeoff"}, {"kind": "min_energy_deadline", "deadline_s": 1.0}]
    )
    def test_2d_scenario_advises_one_core_mem_pair_per_input(self, objective):
        from repro.specs import ScenarioSpec, run_scenario

        scenario = ScenarioSpec.from_record(
            {
                "format": "repro.scenario",
                "schema_version": 1,
                "name": "mhd-2d-advice",
                "campaign": json.loads((EXAMPLES / "campaign_mhd_quick.json").read_text()),
                "fault_plan": None,
                "objective": {**objective, "model": None},
                "outputs": None,
            }
        )
        rows = run_scenario(scenario).advice
        assert [row.features for row in rows] == [(6.0, 12.0, 8.0), (12.0, 24.0, 16.0)]
        for row in rows:
            assert row.error is None
            assert (row.advice.freq_mhz, row.advice.mem_freq_mhz) == (210.0, 810.0)

    def test_check_valid_spec(self, capsys):
        rc = main(["run", str(EXAMPLES / "scenario_serving.json"), "--check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "spec is valid" in out

    def test_check_invalid_spec_exits_nonzero(self, capsys):
        rc = main(["run", str(INVALID / "spec002_bad_values.json"), "--check"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "SPEC002" in captured.err
        assert "spec is valid" not in captured.out

    def test_unrecognized_json_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps({"rows": [1, 2, 3]}))
        rc = main(["run", str(path)])
        assert rc == 1

    def test_example_chaos_scenario_checks_clean(self, capsys):
        rc = main(["run", str(EXAMPLES / "scenario_chaos.json"), "--check"])
        assert rc == 0


def _manifest_file(tmp_path):
    from repro.runtime.seeding import stable_digest

    payload = {
        "name": "m", "version": 1, "app": "ligen", "feature_names": ["ligands"],
        "baseline_freq_mhz": 1380.0, "artifact_sha256": "0" * 64, "artifact_bytes": 1,
        "device_signature_digest": None, "train_fingerprint": None,
    }
    path = tmp_path / "manifest.json"
    path.write_text(
        json.dumps(
            {"format": "repro.model_manifest", "schema_version": 1,
             "manifest": payload, "digest": stable_digest(payload)}
        )
    )
    return path


CHECK_ONLY_SPECS = {
    "repro.device_spec": lambda tmp_path: EXAMPLES / "device_v100.json",
    "repro.fault_plan": lambda tmp_path: VALID / "fault_plan.json",
    "repro.model_manifest": _manifest_file,
}


class TestRunWhatCannotRun:
    @pytest.mark.parametrize("fmt", sorted(CHECK_ONLY_SPECS))
    def test_check_only_format_is_a_clean_error(self, tmp_path, capsys, fmt):
        from repro.specs import RUNNABLE_SPEC_FORMATS

        rc = main(["run", str(CHECK_ONLY_SPECS[fmt](tmp_path))])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert repr(fmt) in err
        assert all(runnable in err for runnable in RUNNABLE_SPEC_FORMATS)

    @pytest.mark.parametrize("fmt", sorted(CHECK_ONLY_SPECS))
    def test_check_only_format_still_checks(self, tmp_path, capsys, fmt):
        rc = main(["run", str(CHECK_ONLY_SPECS[fmt](tmp_path)), "--check"])
        assert rc == 0
        assert "spec is valid" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["fleet_smoke.json", "lifecycle_smoke.json"])
    def test_dataset_output_is_rejected_for_fleet_and_lifecycle(
        self, tmp_path, capsys, name
    ):
        out = tmp_path / "ds.json"
        rc = main(["run", str(EXAMPLES / name), "--dataset-output", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: --dataset-output")
        assert not out.exists()


def _jobs_two(tmp_path, kind):
    """The quick Cronos campaign spec asking for ``"jobs": 2``, or a scenario inlining it."""
    record = json.loads((EXAMPLES / "campaign_cronos_quick.json").read_text())
    record["engine"]["jobs"] = 2
    if kind == "scenario":
        record = {
            "format": "repro.scenario", "schema_version": 1, "name": "two", "campaign": record
        }
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(record))
    return path


@pytest.mark.parametrize("kind", ["campaign", "scenario"])
class TestEngineJobs:
    """A campaign runs in the calling process: ``engine.jobs`` above 1 is a finding."""

    def test_lint_reports_it(self, tmp_path, capsys, kind):
        rc = main(["lint", "--no-self-check", "--format", "json", str(_jobs_two(tmp_path, kind))])
        diags = json.loads(capsys.readouterr().out)["diagnostics"]
        assert rc == 1
        assert [(d["rule"], d["message"]) for d in diags] == [
            ("SPEC002", "engine.jobs: must be <= 1, got 2")
        ]

    def test_run_refuses_it_before_measuring(self, tmp_path, capsys, kind):
        out = tmp_path / "ds.json"
        rc = main(["run", str(_jobs_two(tmp_path, kind)), "--dataset-output", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "[SPEC002] engine.jobs: must be <= 1, got 2" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestLintJsonSpecs:
    def test_directory_walk_reports_all_seeded_errors(self, capsys):
        rc = main(["lint", "--no-self-check", "--select", "SPEC", str(INVALID)])
        out = capsys.readouterr().out
        assert rc == 1
        for rule in ("SPEC001", "SPEC002", "SPEC003", "SPEC004", "SPEC005"):
            assert rule in out

    def test_example_specs_lint_clean(self, capsys):
        rc = main(["lint", "--no-self-check", str(EXAMPLES)])
        assert rc == 0

    def test_json_format_payload(self, capsys):
        rc = main(
            [
                "lint", "--no-self-check", "--format", "json",
                str(INVALID / "spec005_future_version.json"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        payload = json.loads(out)
        assert payload["format"] == "repro.lint"
        assert [d["rule"] for d in payload["diagnostics"]] == ["SPEC005"]

    def test_family_select_from_cli(self, capsys):
        rc = main(
            [
                "lint", "--no-self-check", "--select", "SPEC",
                str(INVALID / "spec004_wrong_unit.json"),
            ]
        )
        assert rc == 1

    def test_family_select_excludes_other_rules(self, tmp_path, capsys):
        # A SPEC-only selection over a Python file can find nothing: all
        # Python rules belong to other families.
        py = tmp_path / "mod.py"
        py.write_text("import random\nrandom.random()\n")
        rc = main(["lint", "--no-self-check", "--select", "SPEC", str(py)])
        assert rc == 0

    def test_select_typo_is_a_clean_cli_error(self, capsys):
        rc = main(["lint", "--no-self-check", "--select", "SPEX", str(INVALID)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "unknown rule id" in captured.err

    def test_walked_directory_skips_non_spec_json(self, tmp_path, capsys):
        (tmp_path / "dataset.json").write_text(json.dumps({"rows": []}))
        rc = main(["lint", "--no-self-check", str(tmp_path)])
        assert rc == 0

    def test_explicit_non_spec_json_fails(self, tmp_path, capsys):
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps({"rows": []}))
        rc = main(["lint", "--no-self-check", str(path)])
        assert rc == 1
