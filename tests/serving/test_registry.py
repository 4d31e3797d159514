"""Unit tests for the versioned, digest-validated model registry."""

import collections
import hashlib
import json
import sys
import threading

import numpy as np
import pytest

from repro.errors import ArtifactError, ModelIntegrityError, RegistryError
from repro.io import load_domain_model, save_domain_model
from repro.lifecycle import run_lifecycle
from repro.ml.forest import RandomForestRegressor
from repro.modeling.dataset import EnergyDataset, EnergySample
from repro.modeling.domain import DomainSpecificModel
from repro.serving import REGISTRY_SCHEMA_VERSION, ModelRegistry
from repro.serving import registry as registry_module
from repro.specs import LifecycleSpec

from .conftest import SERVE_FREQS, synthetic_dataset


def _not_an_npz(model_file, path):
    path.write_bytes(b"not an npz at all")


def _root_is_its_own_child(model_file, path):
    with np.load(model_file) as data:
        arrays = {k: data[k] for k in data.files}
    left = arrays["time__t0_left"].copy()
    left[0] = 0
    arrays["time__t0_left"] = left
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


class TestRegister:
    def test_first_version_is_v1(self, registry):
        manifest = registry.manifest("toy")
        assert manifest.version == 1
        assert manifest.ref == "toy:v1"
        assert manifest.app == "synthetic"

    def test_versions_auto_increment(self, registry, model_file):
        second = registry.register(model_file, "toy", app="synthetic")
        assert second.version == 2
        assert [m.ref for m in registry.list()] == ["toy:v1", "toy:v2"]

    def test_manifest_records_model_metadata(self, registry, fitted_model, model_file):
        manifest = registry.manifest("toy")
        assert manifest.feature_names == fitted_model.feature_names
        assert manifest.baseline_freq_mhz == fitted_model.baseline_freq_mhz
        data = model_file.read_bytes()
        assert manifest.artifact_sha256 == hashlib.sha256(data).hexdigest()
        assert manifest.artifact_bytes == len(data)

    def test_device_signature_and_fingerprint_recorded(self, registry, model_file):
        manifest = registry.register(
            model_file,
            "toy",
            device_signature={"name": "V100", "sm_count": 80},
            train_fingerprint="campaign-xyz",
        )
        assert manifest.device_signature_digest is not None
        assert manifest.train_fingerprint == "campaign-xyz"

    def test_invalid_name_rejected(self, registry, model_file):
        with pytest.raises(RegistryError, match="invalid model name"):
            registry.register(model_file, "../escape")

    def test_missing_artifact_rejected(self, registry, tmp_path):
        with pytest.raises(RegistryError, match="cannot read"):
            registry.register(tmp_path / "nope.npz", "ghost")

    def test_junk_artifact_never_enters_registry(self, registry, model_file, tmp_path):
        junk = tmp_path / "junk.npz"
        # Not an archive; then a valid archive whose first tree's root is
        # its own left child, so a served prediction would never end.
        for make_junk in (_not_an_npz, _root_is_its_own_child):
            make_junk(model_file, junk)
            with pytest.raises(ArtifactError):
                registry.register(junk, "junk")
            with pytest.raises(ArtifactError, match="<junk artifact bytes>"):
                registry.register(junk.read_bytes(), "junk")
        assert all(m.name != "junk" for m in registry.list())

    def test_artifact_bytes_register_as_their_file_does(self, registry, model_file):
        data = model_file.read_bytes()
        from_bytes = registry.register(data, "toy", app="synthetic")
        assert from_bytes.version == 2
        assert from_bytes.as_dict() == {**registry.manifest("toy", 1).as_dict(), "version": 2}
        assert registry.artifact_path("toy", 2).read_bytes() == data


class TestResolve:
    def test_resolved_model_predicts_identically(self, registry, fitted_model):
        model, manifest = registry.resolve("toy")
        assert manifest.ref == "toy:v1"
        want = fitted_model.predict_tradeoff([4.0], SERVE_FREQS)
        got = model.predict_tradeoff([4.0], SERVE_FREQS)
        assert np.array_equal(want.speedups, got.speedups)
        assert np.array_equal(want.normalized_energies, got.normalized_energies)

    def test_unknown_name(self, registry):
        with pytest.raises(RegistryError, match="unknown model"):
            registry.resolve("missing")

    def test_unknown_name_error_names_the_searched_path(self, registry):
        """Zero registered versions: the typed error must say where it
        looked, so a wrong --root is diagnosable from the message alone."""
        with pytest.raises(RegistryError) as excinfo:
            registry.resolve("missing")
        message = str(excinfo.value)
        assert "no versions registered" in message
        assert str(registry.root / "missing") in message
        assert str(registry.root) in message

    def test_unknown_name_manifest_same_typed_error(self, registry):
        with pytest.raises(RegistryError, match="no versions registered"):
            registry.manifest("missing")

    def test_malformed_name_typed_error_on_resolve(self, registry):
        """The read path rejects traversal-style names before touching
        the filesystem — same typed error as the write path."""
        with pytest.raises(RegistryError, match="invalid model name"):
            registry.resolve("../escape")

    def test_unknown_version(self, registry):
        with pytest.raises(RegistryError, match="no version v9"):
            registry.resolve("toy", 9)

    def test_default_is_latest(self, registry, model_file):
        registry.register(model_file, "toy")
        _, manifest = registry.resolve("toy")
        assert manifest.version == 2


class TestIntegrity:
    def _flip_byte(self, path, offset=100):
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_flipped_artifact_byte_refused(self, registry):
        self._flip_byte(registry.artifact_path("toy", 1))
        with pytest.raises(ModelIntegrityError, match="digest mismatch"):
            registry.resolve("toy")

    def test_flipped_byte_anywhere_detected(self, registry):
        artifact = registry.artifact_path("toy", 1)
        for offset in (0, len(artifact.read_bytes()) - 1):
            original = artifact.read_bytes()
            self._flip_byte(artifact, offset)
            with pytest.raises(ModelIntegrityError):
                registry.resolve("toy")
            artifact.write_bytes(original)  # restore for the next offset
        registry.resolve("toy")  # pristine bytes serve again

    def test_verify_reports_tampering(self, registry):
        assert [r.ok for r in registry.verify()] == [True]
        self._flip_byte(registry.artifact_path("toy", 1))
        reports = registry.verify()
        assert len(reports) == 1
        assert not reports[0].ok
        assert "digest mismatch" in reports[0].error

    def test_verify_scopes_to_name_and_version(self, registry, model_file):
        registry.register(model_file, "toy")
        assert len(registry.verify()) == 2
        assert len(registry.verify(name="toy", version=1)) == 1

    def test_tampered_manifest_detected(self, registry):
        path = registry.manifest_path("toy", 1)
        record = json.loads(path.read_text())
        record["manifest"]["app"] = "evil"
        path.write_text(json.dumps(record))
        with pytest.raises(ModelIntegrityError, match="manifest digest"):
            registry.resolve("toy")

    def test_future_schema_rejected(self, registry):
        path = registry.manifest_path("toy", 1)
        record = json.loads(path.read_text())
        record["schema_version"] = REGISTRY_SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        with pytest.raises(RegistryError, match="schema"):
            registry.resolve("toy")

    def test_legacy_schema_key_accepted(self, registry):
        # Manifests written before the envelope converged on
        # 'schema_version' used 'schema'; they still load.
        path = registry.manifest_path("toy", 1)
        record = json.loads(path.read_text())
        record["schema"] = record.pop("schema_version")
        path.write_text(json.dumps(record))
        model, manifest = registry.resolve("toy")
        assert manifest.name == "toy"

    def test_manifest_identity_cross_check(self, registry, tmp_path):
        # A manifest copied under the wrong version directory is rejected
        # even though its self-digest is intact.
        registry.register(registry.artifact_path("toy", 1), "toy")
        v1 = registry.manifest_path("toy", 1)
        v2 = registry.manifest_path("toy", 2)
        v2.write_text(v1.read_text())
        with pytest.raises(ModelIntegrityError, match="identifies itself"):
            registry.resolve("toy", 2)


class TestListing:
    def test_empty_registry(self, tmp_path):
        reg = ModelRegistry(tmp_path / "nowhere")
        assert reg.list() == []
        assert reg.verify() == []

    def test_list_sorted_by_name_and_version(self, registry, model_file):
        registry.register(model_file, "alpha")
        registry.register(model_file, "toy")
        assert [m.ref for m in registry.list()] == ["alpha:v1", "toy:v1", "toy:v2"]


def _forests(model):
    return (model._time_model, model._energy_model, model._speedup_model, model._norm_energy_model)


def _register_distinct_versions(tmp_path, count):
    """A registry holding ``count`` versions of "toy", each with other bytes."""
    registry = ModelRegistry(tmp_path / "registry")
    for seed in range(count):
        model = DomainSpecificModel(
            ("size",),
            regressor_factory=lambda: RandomForestRegressor(n_estimators=2, random_state=seed),
        ).fit(synthetic_dataset())
        path = tmp_path / f"model{seed}.npz"
        save_domain_model(model, path)
        registry.register(path, "toy")
    return registry


def _count_decodes(monkeypatch):
    """Count the registry's artifact decodes, keyed by the bytes' SHA-256."""
    decodes = collections.Counter()
    decode = registry_module.decode_domain_model

    def counting(source):
        decodes[hashlib.sha256(source.getvalue()).hexdigest()] += 1
        return decode(source)

    monkeypatch.setattr(registry_module, "decode_domain_model", counting)
    return decodes


class TestDecodeMemo:
    """``resolve`` decodes each artifact once, and still checks every read."""

    def test_tampered_artifact_refused_after_a_clean_resolve(self, registry):
        registry.resolve("toy")
        artifact = registry.artifact_path("toy", 1)
        data = bytearray(artifact.read_bytes())
        data[100] ^= 0xFF
        artifact.write_bytes(bytes(data))
        with pytest.raises(ModelIntegrityError, match="artifact digest mismatch"):
            registry.resolve("toy")

    def test_resolves_are_distinct_models_over_read_only_arrays(self, registry):
        first, _ = registry.resolve("toy")
        second, _ = registry.resolve("toy")
        assert first is not second
        for a, b in zip(_forests(first), _forests(second)):
            assert a is not b
            for ta, tb in zip(a.estimators_, b.estimators_):
                assert ta is not tb
                assert ta.value_ is tb.value_
                assert not ta.value_.flags.writeable
        with pytest.raises(ValueError):
            first._time_model.estimators_[0].value_[0] = 0.0

        before = second.predict_tradeoff([4.0], SERVE_FREQS)
        slower = EnergyDataset(feature_names=("size",))
        for s in synthetic_dataset().samples:
            slower.add(EnergySample(s.features, s.freq_mhz, 3.0 * s.time_s, s.energy_j))
        refit = first.fit(slower).predict_tradeoff([4.0], SERVE_FREQS)
        after = second.predict_tradeoff([4.0], SERVE_FREQS)
        assert not np.array_equal(refit.times_s, before.times_s)
        assert np.array_equal(after.times_s, before.times_s)
        assert np.array_equal(after.speedups, before.speedups)
        assert np.array_equal(after.normalized_energies, before.normalized_energies)

    def test_verify_keeps_the_memo_at_its_bound(self, tmp_path, monkeypatch):
        kept = registry_module._DECODED_KEPT
        registry = _register_distinct_versions(tmp_path, kept + 2)
        fresh = ModelRegistry(registry.root)
        decodes = _count_decodes(monkeypatch)
        assert all(report.ok for report in fresh.verify())
        assert len(decodes) == kept + 2
        assert len(fresh._decoded) == kept

    def test_concurrent_resolves_keep_the_memo_bounded_and_correct(self, tmp_path, monkeypatch):
        """Threads resolving more versions than the memo holds, under a
        tiny switch interval: no error, the bound holds, every model
        predicts as its own artifact does, and no two decodes overlap
        (``np.load`` parses headers with ``ast.literal_eval``, which
        concurrent threads can break on CPython 3.11)."""
        kept = registry_module._DECODED_KEPT
        registry = _register_distinct_versions(tmp_path, kept + 2)
        versions = range(1, kept + 3)
        want = {
            v: load_domain_model(registry.artifact_path("toy", v)).predict_time([4.0], SERVE_FREQS)
            for v in versions
        }
        in_flight = collections.Counter()
        decode = registry_module.decode_domain_model

        def watched(source):
            in_flight["now"] += 1
            in_flight["peak"] = max(in_flight["peak"], in_flight["now"])
            try:
                return decode(source)
            finally:
                in_flight["now"] -= 1

        monkeypatch.setattr(registry_module, "decode_domain_model", watched)
        errors = []

        def client(offset):
            try:
                for i in range(3 * len(versions)):
                    version = versions[(offset + i) % len(versions)]
                    model, _ = registry.resolve("toy", version)
                    if not np.array_equal(model.predict_time([4.0], SERVE_FREQS), want[version]):
                        errors.append(f"v{version} predicted another model")
            except Exception as exc:  # repro-lint: ignore[EXC001] — reported below
                errors.append(repr(exc))

        threads = [threading.Thread(target=client, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert in_flight["peak"] == 1
        assert len(registry._decoded) == kept

    def test_lifecycle_run_decodes_each_artifact_once(self, tmp_path, monkeypatch):
        """The lifecycle-drift shape: bootstrap v1, drift, retrain v2,
        canary, promote. Four resolves and two registers, two decodes."""
        spec = LifecycleSpec.from_record(
            {
                "format": "repro.lifecycle",
                "schema_version": 1,
                "name": "decode-once",
                "seed": 7,
                "model": {"registry": "registry", "name": "ligen-advisor"},
                "workload": {
                    "app": "ligen",
                    "device": "v100",
                    "ligand_counts": [2, 256, 10000],
                    "atom_counts": [31, 89],
                    "fragment_counts": [4, 20],
                    "freq_count": 6,
                    "repetitions": 1,
                    "trees": 30,
                },
                "drift": {
                    "window": 64,
                    "enter_mape": 20.0,
                    "exit_mape": 10.0,
                    "patience": 1,
                    "min_samples": 4,
                },
                "canary": {"shadow_size": 32, "tolerance": 0.0},
                "injection": {"epoch": 2, "work_scale": 4.0},
                "epochs": 6,
                "requests_per_epoch": 32,
            },
            base_dir=str(tmp_path),
        )
        resolves = []
        resolve = ModelRegistry.resolve

        def counting_resolve(self, name, version=None):
            resolves.append(version)
            return resolve(self, name, version)

        monkeypatch.setattr(ModelRegistry, "resolve", counting_resolve)
        decodes = _count_decodes(monkeypatch)
        result = run_lifecycle(spec, closed_loop=True)
        assert (result.initial_version, result.final_version) == (1, 2)
        assert resolves == [1, 1, 2, 2]
        assert sorted(decodes.values()) == [1, 1]
