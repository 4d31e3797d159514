"""CLI tests for ``repro fleet``, its ``repro run`` dispatch, and the
machine-readable ``repro advise --format json`` surface."""

import json

import pytest

from repro.cli import main
from repro.io import save_domain_model
from repro.serving import ModelRegistry


@pytest.fixture(scope="module")
def fleet_dir(tiny_model, tmp_path_factory):
    """A directory holding a registry-backed fleet spec next to its registry."""
    root = tmp_path_factory.mktemp("fleet-cli")
    model_path = root / "model.npz"
    save_domain_model(tiny_model, model_path)
    ModelRegistry(root / "registry").register(model_path, "toy", app="synthetic")
    record = {
        "format": "repro.fleet",
        "schema_version": 1,
        "name": "cli-fleet",
        "gpus": 4,
        "ticks": 20,
        "tick_s": 0.5,
        "seed": 3,
        "arrivals": {"rate_per_tick": 1.0, "horizon_ticks": 15},
        "job_types": [
            {"name": "small", "features": [1.0], "deadline_s": 10.0},
            {"name": "big", "features": [4.0], "deadline_s": 16.0},
        ],
        "advisor": {
            "model": {"registry": "registry", "name": "toy", "version": 1},
            "freq_min_mhz": 400.0,
            "freq_max_mhz": 1500.0,
            "freq_points": 5,
        },
    }
    spec_path = root / "fleet.json"
    spec_path.write_text(json.dumps(record, indent=2))
    return root


class TestFleetCommand:
    def test_text_summary(self, fleet_dir, capsys):
        rc = main(["fleet", str(fleet_dir / "fleet.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "toy@registry" in out
        assert "fleet summary (vectorized)" in out
        assert "SLA attainment" in out

    def test_json_payload(self, fleet_dir, capsys):
        rc = main(["fleet", str(fleet_dir / "fleet.json"), "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "vectorized"
        assert payload["spec"]["name"] == "cli-fleet"
        assert payload["fingerprint"]
        assert payload["summary"]["jobs"] > 0
        assert "baseline" not in payload

    def test_reference_mode_agrees_with_vectorized(self, fleet_dir, capsys):
        spec = str(fleet_dir / "fleet.json")
        assert main(["fleet", spec, "--format", "json"]) == 0
        vec = json.loads(capsys.readouterr().out)
        assert main(["fleet", spec, "--mode", "reference", "--format", "json"]) == 0
        ref = json.loads(capsys.readouterr().out)
        assert ref["mode"] == "reference"
        vec["summary"].pop("mode")
        ref["summary"].pop("mode")
        assert vec["summary"] == ref["summary"]

    def test_baseline_reports_savings_at_sla_delta(self, fleet_dir, capsys):
        rc = main(
            ["fleet", str(fleet_dir / "fleet.json"), "--baseline", "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        baseline = payload["baseline"]
        assert baseline["static_freq_mhz"] == 1500.0
        assert baseline["advised"]["policy"] == "advised"
        assert baseline["static"]["policy"] == "static"
        assert "energy_saved_j" in baseline
        assert "sla_delta" in baseline

    def test_baseline_reports_the_grid_clock_that_ran(self, fleet_dir, capsys):
        rc = main(
            ["fleet", str(fleet_dir / "fleet.json"), "--baseline",
             "--static-freq", "950.0000001", "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline"]["static_freq_mhz"] == 950.0

    def test_overrides_change_the_simulated_fleet(self, fleet_dir, capsys):
        rc = main(
            ["fleet", str(fleet_dir / "fleet.json"),
             "--gpus", "2", "--ticks", "10", "--seed", "9", "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["gpus"] == 2
        assert payload["spec"]["ticks"] == 10
        assert payload["spec"]["seed"] == 9

    def test_static_policy_override(self, fleet_dir, capsys):
        rc = main(
            ["fleet", str(fleet_dir / "fleet.json"),
             "--policy", "static", "--static-freq", "950", "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["policy"] == "static"
        assert payload["spec"]["static_freq_mhz"] == 950.0
        assert payload["summary"]["policy"] == "static"

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--policy", "static", "--static-freq", "-5"], "static_freq_mhz"),
            (["--policy", "static"], "static_freq_mhz"),
            (["--gpus", "0"], "gpus"),
            (["--gpus", "-1"], "gpus"),
            (["--ticks", "-2"], "ticks"),
            (["--seed", "-3"], "seed"),
            (["--policy", "static", "--static-freq", "5000"], "static_freq_mhz"),
            (["--baseline", "--static-freq", "5000"], "static_freq_mhz"),
            (["--policy", "static", "--static-freq", "990"], "static_freq_mhz"),
            (["--baseline", "--static-freq", "990"], "static_freq_mhz"),
        ],
    )
    def test_bad_override_is_a_spec_diagnostic(self, fleet_dir, capsys, flags, field):
        rc = main(["fleet", str(fleet_dir / "fleet.json"), *flags])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"[SPEC002] {field}:" in captured.err
        assert captured.out == ""

    def test_invalid_spec_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "repro.fleet", "schema_version": 1}))
        rc = main(["fleet", str(bad)])
        assert rc == 1
        assert "error" in capsys.readouterr().err.lower()


class TestRunDispatch:
    def test_repro_run_executes_fleet_specs(self, fleet_dir, capsys):
        rc = main(["run", str(fleet_dir / "fleet.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fleet 'cli-fleet'" in out
        assert "fleet summary (vectorized)" in out

    def test_repro_run_check_only_validates(self, fleet_dir, capsys):
        rc = main(["run", str(fleet_dir / "fleet.json"), "--check"])
        assert rc == 0
        assert "spec is valid" in capsys.readouterr().out


class TestAdviseJson:
    def test_advise_format_json_is_machine_readable(self, fleet_dir, capsys):
        rc = main(
            ["advise", "--registry", str(fleet_dir / "registry"),
             "--name", "toy", "--features", "2.0",
             "--freq-min", "400", "--freq-max", "1500", "--freq-points", "5",
             "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"]["name"] == "toy"
        assert payload["features"] == [2.0]
        assert payload["advice"]["freq_mhz"] in [
            400.0, 675.0, 950.0, 1225.0, 1500.0
        ]
        assert "objective" in payload

    def test_advise_text_output_unchanged(self, fleet_dir, capsys):
        rc = main(
            ["advise", "--registry", str(fleet_dir / "registry"),
             "--name", "toy", "--features", "2.0",
             "--freq-min", "400", "--freq-max", "1500", "--freq-points", "5"]
        )
        assert rc == 0
        assert "advice: run at" in capsys.readouterr().out
