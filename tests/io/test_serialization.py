"""Unit tests for dataset/characterization/model persistence."""

import numpy as np
import pytest

from repro.errors import DatasetError, ModelNotFittedError
from repro.io import (
    load_characterization,
    load_dataset,
    load_domain_model,
    save_characterization,
    save_dataset,
    save_domain_model,
)
from repro.ml.forest import RandomForestRegressor
from repro.modeling.dataset import EnergyDataset, EnergySample
from repro.modeling.domain import DomainSpecificModel


def make_dataset():
    ds = EnergyDataset(feature_names=("size",))
    for size in (1.0, 2.0, 4.0):
        for f in (400.0, 800.0, 1282.0, 1500.0):
            ds.add(
                EnergySample(
                    features=(size,),
                    freq_mhz=f,
                    time_s=size * 1000.0 / f,
                    energy_j=size * (20.0 + f / 100.0),
                )
            )
    return ds


class TestDatasetRoundtrip:
    def test_roundtrip(self, tmp_path):
        ds = make_dataset()
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.feature_names == ds.feature_names
        assert len(back) == len(ds)
        assert back.samples[0] == ds.samples[0]
        assert np.allclose(back.X(), ds.X())

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something_else"}')
        with pytest.raises(DatasetError):
            load_dataset(path)


class TestCharacterizationRoundtrip:
    def test_roundtrip(self, tmp_path, ideal_v100_dev, small_freqs):
        from repro.ligen.app import LigenApplication
        from repro.synergy.runner import characterize

        result = characterize(
            LigenApplication(256, 31, 4), ideal_v100_dev,
            freqs_mhz=small_freqs, repetitions=2,
        )
        path = tmp_path / "char.json"
        save_characterization(result, path)
        back = load_characterization(path)
        assert back.app_name == result.app_name
        assert back.baseline_energy_j == result.baseline_energy_j
        assert np.allclose(back.freqs_mhz, result.freqs_mhz)
        assert np.allclose(back.speedups(), result.speedups())
        assert np.allclose(back.samples[0].rep_times_s, result.samples[0].rep_times_s)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "repro.energy_dataset"}')
        with pytest.raises(DatasetError):
            load_characterization(path)


class TestCharacterizationMemoryClock:
    def run_grid_row(self):
        from repro.hw.specs import make_a100_spec
        from repro.mhd.app import MhdApplication
        from repro.runtime.engine import CampaignEngine

        engine = CampaignEngine(jobs=1, campaign_seed=3, method="replay")
        spec = make_a100_spec()
        rows = engine.characterize_grid(
            [MhdApplication.from_size(6, 12, 8, n_steps=2)],
            spec,
            freqs_mhz=(300.0, 1410.0),
            mem_freqs_mhz=[spec.mem_freq_table.min_mhz],
            repetitions=2,
        )[0]
        return rows[0]

    def test_memory_pinned_row_round_trips_bitwise(self, tmp_path):
        result = self.run_grid_row()
        assert result.mem_freq_mhz is not None
        path = tmp_path / "char.json"
        save_characterization(result, path)
        back = load_characterization(path)
        assert back.mem_freq_mhz == result.mem_freq_mhz
        assert back.baseline_time_s == result.baseline_time_s
        for sa, sb in zip(result.samples, back.samples):
            assert sb.mem_freq_mhz == sa.mem_freq_mhz
            assert sb.time_s == sa.time_s
            assert np.array_equal(sb.rep_times_s, sa.rep_times_s)

    def test_core_only_payload_keeps_the_legacy_byte_layout(
        self, tmp_path, ideal_v100_dev, small_freqs
    ):
        # Absent memory clocks must be absent *keys*, not nulls, so
        # pre-2-D payloads and fresh core-only saves are byte-identical.
        import json

        from repro.ligen.app import LigenApplication
        from repro.synergy.runner import characterize

        result = characterize(
            LigenApplication(256, 31, 4), ideal_v100_dev,
            freqs_mhz=small_freqs, repetitions=1,
        )
        path = tmp_path / "char.json"
        save_characterization(result, path)
        payload = json.loads(path.read_text())
        assert "mem_freq_mhz" not in payload
        assert all("mem_freq_mhz" not in s for s in payload["samples"])

    def test_legacy_payload_loads_with_no_memory_clock(self, tmp_path):
        # A payload written before the 2-D sweep existed has no
        # mem_freq_mhz keys anywhere; it must load as a core-only result.
        import json

        result = self.run_grid_row()
        path = tmp_path / "char.json"
        save_characterization(result, path)
        payload = json.loads(path.read_text())
        del payload["mem_freq_mhz"]
        for s in payload["samples"]:
            s.pop("mem_freq_mhz", None)
        path.write_text(json.dumps(payload))
        back = load_characterization(path)
        assert back.mem_freq_mhz is None
        assert all(s.mem_freq_mhz is None for s in back.samples)
        assert back.baseline_time_s == result.baseline_time_s


class TestForestRoundtrip:
    """The forests a domain-model artifact carries, one by one."""

    def test_identical_predictions(self, tmp_path):
        model = DomainSpecificModel(
            ("size",),
            regressor_factory=lambda: RandomForestRegressor(n_estimators=7, random_state=1),
        ).fit(make_dataset())
        path = tmp_path / "model.npz"
        save_domain_model(model, path)
        back = load_domain_model(path)
        Xt = np.random.default_rng(0).uniform(0, 5, (40, 2))
        for name in ("_time_model", "_energy_model", "_speedup_model", "_norm_energy_model"):
            forest, loaded = getattr(model, name), getattr(back, name)
            assert np.array_equal(loaded.predict(Xt), forest.predict(Xt))
            assert len(loaded.estimators_) == 7

    def test_unfitted_rejected(self, tmp_path):
        model = DomainSpecificModel(("size",)).fit(make_dataset())
        model._energy_model = RandomForestRegressor()
        with pytest.raises(ModelNotFittedError, match="unfitted forest"):
            save_domain_model(model, tmp_path / "x.npz")

    def test_wrong_archive_rejected(self, tmp_path):
        """An archive of another format, such as a bare forest, is refused."""
        import json

        path = tmp_path / "bad.npz"
        meta = {"format": "repro.random_forest", "version": 1}
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
        with pytest.raises(DatasetError, match="not a domain-model artifact"):
            load_domain_model(path)


class TestDomainModelRoundtrip:
    def test_identical_tradeoff_predictions(self, tmp_path):
        ds = make_dataset()
        model = DomainSpecificModel(
            ("size",),
            regressor_factory=lambda: RandomForestRegressor(n_estimators=6, random_state=2),
        ).fit(ds)
        path = tmp_path / "model.npz"
        save_domain_model(model, path)
        back = load_domain_model(path)

        freqs = [400.0, 800.0, 1282.0, 1500.0]
        for feats in ((1.0,), (3.0,)):
            a = model.predict_tradeoff(feats, freqs)
            b = back.predict_tradeoff(feats, freqs)
            assert np.array_equal(a.speedups, b.speedups)
            assert np.array_equal(a.normalized_energies, b.normalized_energies)
            assert np.array_equal(a.times_s, b.times_s)
        assert back.feature_names == ("size",)
        assert back.baseline_freq_mhz == model.baseline_freq_mhz

    def test_unfitted_rejected(self, tmp_path):
        model = DomainSpecificModel(("size",))
        with pytest.raises(ModelNotFittedError):
            save_domain_model(model, tmp_path / "m.npz")

    def test_non_forest_rejected(self, tmp_path):
        from repro.ml.linear import LinearRegression

        model = DomainSpecificModel(("size",), regressor_factory=LinearRegression)
        model.fit(make_dataset())
        with pytest.raises(DatasetError):
            save_domain_model(model, tmp_path / "m.npz")


def _rewrite_npz(path, mutate):
    """Round-trip an .npz through a dict, applying ``mutate(arrays)``."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    mutate(arrays)
    np.savez(path, **arrays)


_TREE_FIELDS = ("feature", "threshold", "left", "right", "value")


def _break_first_tree(path, defect):
    """Apply ``defect(tree)`` to the arrays of the time model's first tree.

    Its root is internal: the fixture models split on every target.
    """

    def mutate(arrays):
        tree = {f: arrays[f"time__t0_{f}"].copy() for f in _TREE_FIELDS}
        assert tree["feature"][0] >= 0
        defect(tree)
        arrays.update({f"time__t0_{f}": a for f, a in tree.items()})

    _rewrite_npz(path, mutate)


def _set_node(field, node, value):
    def defect(tree):
        tree[field][node] = value

    return defect


def _replace(field, change):
    def defect(tree):
        tree[field] = change(tree[field])

    return defect


def _first_leaf_gets_children(tree):
    leaf = int(np.flatnonzero(tree["feature"] < 0)[0])
    tree["left"][leaf], tree["right"][leaf] = 1, 2


def _right_child_is_left_child(tree):
    tree["right"][0] = tree["left"][0]


class TestArtifactErrors:
    """Corrupt artifacts raise typed errors, not raw KeyError/zipfile noise.

    ``ArtifactError`` subclasses ``DatasetError``, so older callers
    catching DatasetError keep working; new callers can be precise.
    """

    @pytest.fixture
    def model_path(self, tmp_path):
        model = DomainSpecificModel(
            ("size",),
            regressor_factory=lambda: RandomForestRegressor(
                n_estimators=4, random_state=0
            ),
        ).fit(make_dataset())
        path = tmp_path / "model.npz"
        save_domain_model(model, path)
        return path

    def test_artifact_error_is_dataset_error(self):
        from repro.errors import ArtifactError, ArtifactSchemaError, DatasetError

        assert issubclass(ArtifactError, DatasetError)
        assert issubclass(ArtifactSchemaError, ArtifactError)

    def test_truncated_model_raises_artifact_error(self, model_path):
        from repro.errors import ArtifactError

        data = model_path.read_bytes()
        model_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ArtifactError, match="unreadable domain-model artifact"):
            load_domain_model(model_path)

    def test_garbage_bytes_raise_artifact_error(self, tmp_path):
        from repro.errors import ArtifactError

        path = tmp_path / "junk.npz"
        path.write_bytes(b"\x00\x01\x02 definitely not a zip")
        with pytest.raises(ArtifactError):
            load_domain_model(path)

    def test_missing_array_raises_artifact_error(self, model_path):
        from repro.errors import ArtifactError

        def drop_one(arrays):
            victim = next(k for k in arrays if k != "__meta__")
            del arrays[victim]

        _rewrite_npz(model_path, drop_one)
        with pytest.raises(ArtifactError, match="missing array"):
            load_domain_model(model_path)

    def test_schema_version_mismatch_raises_schema_error(self, model_path):
        import json as _json

        from repro.errors import ArtifactSchemaError

        def bump_version(arrays):
            meta = _json.loads(bytes(arrays["__meta__"].tobytes()).decode())
            meta["version"] = 999
            arrays["__meta__"] = np.frombuffer(
                _json.dumps(meta).encode(), dtype=np.uint8
            )

        _rewrite_npz(model_path, bump_version)
        with pytest.raises(ArtifactSchemaError, match="schema version 999"):
            load_domain_model(model_path)

    def test_file_like_source_loads(self, model_path):
        import io as _io

        model = load_domain_model(_io.BytesIO(model_path.read_bytes()))
        assert model.feature_names == ("size",)

    def test_missing_meta_raises_artifact_error(self, model_path):
        from repro.errors import ArtifactError

        _rewrite_npz(model_path, lambda arrays: arrays.pop("__meta__"))
        with pytest.raises(ArtifactError, match="no __meta__ entry"):
            load_domain_model(model_path)

    @pytest.mark.parametrize(
        "defect, message",
        [
            pytest.param(_set_node("left", 0, 0), "does not follow its parent", id="self_loop"),
            pytest.param(_set_node("left", 0, 10**6), "child index is outside", id="child_out_of_range"),
            pytest.param(_set_node("feature", 0, 7), "feature index is outside", id="feature_out_of_range"),
            pytest.param(_replace("value", lambda a: a[:-1]), "equal length", id="truncated_value"),
            pytest.param(_replace("left", lambda a: a.astype(float)), "integer arrays", id="float_left"),
            pytest.param(_first_leaf_gets_children, "a leaf has children", id="leaf_with_children"),
            pytest.param(_right_child_is_left_child, "referenced exactly once", id="shared_child"),
        ],
    )
    def test_broken_tree_structure_raises_artifact_error(self, model_path, defect, message):
        """A tree prediction cannot walk (a cycle, an index past an array)
        is refused at decode, before anything serves it."""
        from repro.errors import ArtifactError

        _break_first_tree(model_path, defect)
        with pytest.raises(ArtifactError, match=message):
            load_domain_model(model_path)

