"""A write that crashes part-way leaves the old state readable.

``ModelRegistry.register`` writes ``vN/model.npz`` and then
``vN/manifest.json``. A crash between the two leaves ``vN/`` without a
manifest. That directory used to count as a version, so resolving,
listing and verifying the name failed, and the next register skipped to
``vN+1``. The manifest is what commits a version.

``ResultCache.put`` writes a temp file and renames it over the entry; a
crash at the rename must leave the previous entry readable. So must
``save_dataset``, ``save_characterization`` and ``FaultPlan.save`` leave
the previous file, which they used to overwrite in place.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.errors import RegistryError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.io import save_characterization, save_dataset
from repro.runtime import cache as cache_module
from repro.runtime.cache import ResultCache
from repro.serving import AdvisorService
from repro.serving import registry as registry_module
from repro.synergy.runner import CharacterizationResult, FrequencySample

from .conftest import SERVE_FREQS, synthetic_dataset


class SimulatedCrash(OSError):
    """The process died here."""


def crash_before_manifest(monkeypatch):
    """Make the next register die between its artifact and manifest writes."""
    write = registry_module._atomic_write

    def artifact_only(path, data):
        if path.name == "manifest.json":
            raise SimulatedCrash(f"crashed before writing {path}")
        write(path, data)

    monkeypatch.setattr(registry_module, "_atomic_write", artifact_only)


@pytest.fixture
def crashed(registry, model_file, monkeypatch):
    """``toy:v1`` registered, then a register of v2 that crashed."""
    with monkeypatch.context() as patch:
        crash_before_manifest(patch)
        with pytest.raises(SimulatedCrash):
            registry.register(model_file, "toy")
    assert registry.artifact_path("toy", 2).is_file()
    assert not registry.manifest_path("toy", 2).exists()
    return registry


class TestRegistryCrashBeforeManifest:
    def test_reads_as_the_old_state(self, crashed):
        assert [m.ref for m in crashed.list()] == ["toy:v1"]
        assert crashed.manifest("toy").ref == "toy:v1"
        _, manifest = crashed.resolve("toy")
        assert manifest.ref == "toy:v1"
        assert [(r.ref, r.ok) for r in crashed.verify()] == [("toy:v1", True)]

    def test_uncommitted_version_is_unknown(self, crashed):
        with pytest.raises(RegistryError, match="available: v1"):
            crashed.resolve("toy", 2)

    def test_next_register_reuses_the_version(self, crashed, model_file):
        assert crashed.register(model_file, "toy").ref == "toy:v2"
        assert [m.ref for m in crashed.list()] == ["toy:v1", "toy:v2"]
        _, manifest = crashed.resolve("toy")
        assert manifest.ref == "toy:v2"

    def test_crashed_first_version_leaves_no_model(self, model_file, tmp_path, monkeypatch):
        registry = registry_module.ModelRegistry(tmp_path / "fresh")
        with monkeypatch.context() as patch:
            crash_before_manifest(patch)
            with pytest.raises(SimulatedCrash):
                registry.register(model_file, "toy")
        assert registry.list() == []
        with pytest.raises(RegistryError, match="unknown model"):
            registry.resolve("toy")
        assert registry.register(model_file, "toy").ref == "toy:v1"

    def test_service_and_cli_serve_the_old_version(self, crashed, capsys):
        service = AdvisorService.from_registry(crashed, "toy", SERVE_FREQS)
        assert service.manifest.ref == "toy:v1"
        root = str(crashed.root)
        assert main(["registry", "list", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "toy:v1" in out and "toy:v2" not in out
        assert main(["registry", "verify", "--root", root]) == 0
        rc = main(
            ["advise", "--registry", root, "--name", "toy", "--features", "4.0",
             "--freq-min", "400", "--freq-max", "1500", "--freq-points", "12"]
        )
        assert rc == 0
        assert "toy:v1" in capsys.readouterr().out


class TestResultCacheCrashAtReplace:
    def test_previous_entry_stays_readable(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        key = cache.key_for({"point": 1})
        cache.put(key, {"energy_j": 1.0})

        def crash(src, dst):
            raise SimulatedCrash(f"crashed renaming {src}")

        with monkeypatch.context() as patch:
            patch.setattr(cache_module.os, "replace", crash)
            with pytest.raises(SimulatedCrash):
                cache.put(key, {"energy_j": 2.0})
        assert cache.get(key) == {"energy_j": 1.0}
        assert cache.stats.writes == 1
        assert not list(cache.path_for(key).parent.glob("*.tmp"))


def _characterization(time_s):
    sample = FrequencySample(900.0, time_s, 2.0, np.array([time_s]), np.array([2.0]))
    return CharacterizationResult("app", "v100", "default", 1282.0, 1.0, 3.0, [sample])


#: ``(write the old file, write the new file)`` per writer.
WRITERS = {
    "save_dataset": (
        lambda path: save_dataset(synthetic_dataset(), path),
        lambda path: save_dataset(synthetic_dataset().split_leave_one_out([1.0])[1], path),
    ),
    "save_characterization": (
        lambda path: save_characterization(_characterization(1.5), path),
        lambda path: save_characterization(_characterization(2.5), path),
    ),
    "FaultPlan.save": (
        lambda path: FaultPlan(seed=1, specs=(FaultSpec("worker_crash", occurrences=(0,)),)).save(path),
        lambda path: FaultPlan(seed=2).save(path),
    ),
}


class TestWritersCrashAtReplace:
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_previous_file_keeps_its_bytes(self, writer, tmp_path, monkeypatch):
        write_old, write_new = WRITERS[writer]
        path = tmp_path / "out.json"
        write_old(path)
        before = path.read_bytes()

        def crash(src, dst):
            raise SimulatedCrash(f"crashed renaming {src}")

        with monkeypatch.context() as patch:
            patch.setattr(cache_module.os, "replace", crash)
            with pytest.raises(SimulatedCrash):
                write_new(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        write_new(path)
        assert path.read_bytes() != before
