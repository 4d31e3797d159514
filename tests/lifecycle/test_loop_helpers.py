"""Unit tests for the loop's construction helpers (no campaigns run)."""

import pytest

from repro.errors import LifecycleError, SpecValidationError
from repro.lifecycle import Retrainer, build_retrainer, build_workload
from repro.serving import ModelRegistry
from repro.specs import LifecycleSpec


def _record(app: str = "ligen") -> dict:
    record = {
        "format": "repro.lifecycle",
        "schema_version": 1,
        "name": "helpers",
        "seed": 5,
        "model": {"registry": "reg", "name": "adv"},
        "workload": {
            "app": app,
            "device": "v100",
            "freq_count": 4,
            "repetitions": 1,
            "trees": 6,
        },
        "drift": {"enter_mape": 20.0, "exit_mape": 10.0},
        "epochs": 2,
        "requests_per_epoch": 4,
    }
    if app == "ligen":
        record["workload"].update(
            ligand_counts=[2, 64], atom_counts=[31, 89], fragment_counts=[4]
        )
    else:
        record["workload"].update(grids=[[16, 16, 1], [32, 16, 1]], steps=5)
    return record


class TestBuildWorkload:
    def test_ligen_cross_product(self, tmp_path):
        spec = LifecycleSpec.from_record(_record("ligen"), base_dir=str(tmp_path))
        apps = build_workload(spec)
        assert len(apps) == 2 * 2 * 1
        assert {a.n_ligands for a in apps} == {2, 64}

    def test_cronos_grids(self, tmp_path):
        spec = LifecycleSpec.from_record(_record("cronos"), base_dir=str(tmp_path))
        apps = build_workload(spec)
        assert len(apps) == 2
        assert all(a.n_steps == 5 for a in apps)

    def test_unknown_app_kind_rejected_by_schema(self, tmp_path):
        record = _record("ligen")
        record["workload"]["app"] = "gromacs"
        with pytest.raises(SpecValidationError):
            LifecycleSpec.from_record(record, base_dir=str(tmp_path))

    def test_ligen_spec_requires_its_axes(self, tmp_path):
        record = _record("ligen")
        del record["workload"]["ligand_counts"]
        with pytest.raises(SpecValidationError, match="ligand_counts"):
            LifecycleSpec.from_record(record, base_dir=str(tmp_path))

    def test_cronos_spec_requires_grids(self, tmp_path):
        record = _record("cronos")
        del record["workload"]["grids"]
        with pytest.raises(SpecValidationError, match="grids"):
            LifecycleSpec.from_record(record, base_dir=str(tmp_path))


class TestBuildRetrainer:
    def test_feature_names_and_baseline_from_device(self, tmp_path):
        spec = LifecycleSpec.from_record(_record("ligen"), base_dir=str(tmp_path))
        retrainer = build_retrainer(spec, ModelRegistry(tmp_path / "reg"))
        assert retrainer.feature_names == ("f_ligands", "f_fragments", "f_atoms")
        assert retrainer.baseline_freq_mhz in retrainer.freqs_mhz
        assert len(retrainer.freqs_mhz) >= spec.freq_count

    def test_cronos_feature_names(self, tmp_path):
        spec = LifecycleSpec.from_record(_record("cronos"), base_dir=str(tmp_path))
        retrainer = build_retrainer(spec, ModelRegistry(tmp_path / "reg"))
        assert retrainer.feature_names == ("f_grid_x", "f_grid_y", "f_grid_z")

    def test_mi100_baseline_falls_back_to_a_training_freq(self, tmp_path):
        record = _record("ligen")
        record["workload"]["device"] = "mi100"
        spec = LifecycleSpec.from_record(record, base_dir=str(tmp_path))
        retrainer = build_retrainer(spec, ModelRegistry(tmp_path / "reg"))
        # Whatever the device table says, the baseline must be trainable.
        assert retrainer.baseline_freq_mhz in retrainer.freqs_mhz

    def test_generation_seeds_are_decorrelated(self, tmp_path):
        spec = LifecycleSpec.from_record(_record("ligen"), base_dir=str(tmp_path))
        retrainer = build_retrainer(spec, ModelRegistry(tmp_path / "reg"))
        seeds = {retrainer.campaign_seed(g) for g in range(5)}
        assert len(seeds) == 5
        prints = {retrainer.train_fingerprint(g) for g in range(5)}
        assert len(prints) == 5

    def test_retrain_refuses_empty_workload(self, tmp_path):
        retrainer = Retrainer(
            registry=ModelRegistry(tmp_path / "reg"),
            name="adv",
            feature_names=("size",),
            freqs_mhz=(1000.0,),
            baseline_freq_mhz=1000.0,
        )
        with pytest.raises(LifecycleError, match="at least one workload"):
            retrainer.retrain([], generation=0)


class TestSpecSurface:
    def test_freq_grid_spans_serving_bounds(self, tmp_path):
        spec = LifecycleSpec.from_record(_record("ligen"), base_dir=str(tmp_path))
        grid = spec.freq_grid()
        assert grid[0] == spec.freq_min_mhz
        assert grid[-1] == spec.freq_max_mhz
        assert len(grid) == spec.freq_points

    def test_fingerprint_ignores_base_dir(self, tmp_path):
        a = LifecycleSpec.from_record(_record("ligen"), base_dir=str(tmp_path / "a"))
        b = LifecycleSpec.from_record(_record("ligen"), base_dir=str(tmp_path / "b"))
        assert a.fingerprint() == b.fingerprint()

    def test_describe_mentions_model_and_workload(self, tmp_path):
        spec = LifecycleSpec.from_record(_record("ligen"), base_dir=str(tmp_path))
        text = spec.describe()
        assert "adv" in text
        assert "ligen" in text
