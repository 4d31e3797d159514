"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_characterize_defaults(self):
        args = build_parser().parse_args(["characterize", "--app", "ligen"])
        assert args.device == "v100"
        assert args.reps == 5


class TestCharacterizeCommand:
    def test_prints_table(self, capsys):
        rc = main(
            [
                "characterize",
                "--app", "ligen",
                "--ligands", "1024", "--atoms", "31", "--fragments", "4",
                "--freqs", "6", "--reps", "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "freq_mhz" in out
        assert "default configuration" in out

    def test_cronos_grid_parsing(self, capsys):
        rc = main(
            [
                "characterize",
                "--app", "cronos", "--grid", "20x8x8", "--steps", "4",
                "--freqs", "6", "--reps", "1",
            ]
        )
        assert rc == 0
        assert "cronos-20x8x8" in capsys.readouterr().out

    def test_saves_sweep(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        rc = main(
            [
                "characterize",
                "--app", "ligen", "--ligands", "1024", "--atoms", "31",
                "--fragments", "4", "--freqs", "6", "--reps", "1",
                "--output", str(out_file),
            ]
        )
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert payload["format"] == "repro.characterization"

    def test_bad_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "--app", "ligen", "--device", "b300"])


class TestTrainPredictTune:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "model.npz"
        rc = main(
            [
                "train", "--app", "cronos",
                "--freqs", "8", "--reps", "1", "--trees", "6",
                "--output", str(path),
            ]
        )
        assert rc == 0
        return path

    def test_predict(self, model_path, capsys):
        rc = main(
            [
                "predict", "--model", str(model_path),
                "--features", "60,24,24", "--freq-points", "6",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Pareto frequencies" in out

    def test_train_predict_round_trip(self, model_path, capsys):
        """The saved artifact is servable: predict parses back a real front.

        Every Pareto frequency printed must come from the requested grid,
        and every one must be starred in the profile table.
        """
        import ast

        rc = main(
            [
                "predict", "--model", str(model_path),
                "--features", "60,24,24",
                "--freq-min", "400", "--freq-max", "1500", "--freq-points", "12",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        line = next(l for l in out.splitlines() if l.startswith("Pareto frequencies:"))
        pareto = ast.literal_eval(line.split(":", 1)[1].strip())
        assert pareto, "round-trip produced an empty Pareto set"
        grid = {round(f) for f in np.linspace(400.0, 1500.0, 12)}
        assert set(pareto) <= grid
        starred = {
            int(row.split("|")[0]) for row in out.splitlines()
            if "|" in row and row.rstrip().endswith("*")
        }
        assert starred == set(pareto)

    def test_predict_corrupted_model_is_clean_error(self, model_path, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.npz"
        data = bytearray(model_path.read_bytes())
        corrupt.write_bytes(bytes(data[: len(data) // 2]))  # truncated artifact
        rc = main(
            ["predict", "--model", str(corrupt), "--features", "60,24,24"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err

    def test_tune_min_energy(self, model_path, capsys):
        rc = main(
            [
                "tune", "--model", str(model_path),
                "--features", "160,64,64",
                "--metric", "min_energy", "--max-slowdown", "0.1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "pin the clock" in out

    def test_tune_energy_target(self, model_path, capsys):
        rc = main(
            [
                "tune", "--model", str(model_path),
                "--features", "160,64,64",
                "--metric", "energy_target", "--energy-target", "0.95",
            ]
        )
        assert rc == 0
        assert "energy_target" in capsys.readouterr().out

    def test_tune_infeasible_reports_error(self, model_path, capsys):
        rc = main(
            [
                "tune", "--model", str(model_path),
                "--features", "160,64,64",
                "--metric", "energy_target", "--energy-target", "0.01",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_reproduce_parser_wiring(self):
        args = build_parser().parse_args(
            ["reproduce", "--experiment", "fig13-cronos", "--quick"]
        )
        assert args.experiment == "fig13-cronos"
        assert args.quick is True

    def test_reproduce_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "--experiment", "fig99"])

    def test_predict_missing_model(self, tmp_path, capsys):
        rc = main(
            [
                "predict", "--model", str(tmp_path / "missing.npz"),
                "--features", "1,2,3",
            ]
        )
        assert rc == 1


class TestCampaignCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["campaign", "--app", "cronos"])
        assert args.cache_dir == ".repro-cache"
        assert args.no_cache is False
        assert args.seed == 42

    @staticmethod
    def _summary_value(out, key):
        for line in out.splitlines():
            if line.startswith(key):
                return line.split(":")[-1].strip()
        raise AssertionError(f"summary line {key!r} not found in output")

    def test_cold_then_warm_cache(self, tmp_path, capsys):
        argv = [
            "campaign", "--app", "cronos", "--quick",
            "--freqs", "4", "--reps", "1",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "campaign summary" in cold
        assert self._summary_value(cold, "cache hits") == "0"
        executed = self._summary_value(cold, "tasks executed")
        assert int(executed) > 0

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert self._summary_value(warm, "tasks executed") == "0"
        assert self._summary_value(warm, "cache hits") == executed

    def test_no_cache_flag(self, tmp_path, capsys):
        rc = main(
            [
                "campaign", "--app", "cronos", "--quick",
                "--freqs", "4", "--reps", "1", "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cache hits" not in out or self._summary_value(out, "cache hits") == "0"

    def test_dataset_output(self, tmp_path, capsys):
        out_file = tmp_path / "campaign.json"
        rc = main(
            [
                "campaign", "--app", "ligen", "--quick",
                "--freqs", "4", "--reps", "1", "--no-cache",
                "--dataset-output", str(out_file),
            ]
        )
        assert rc == 0
        assert out_file.exists()
