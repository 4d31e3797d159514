"""Files the registry, the cache and the writers create get ``open()``'s mode.

``atomic_write`` writes a temp file and renames it over the target, and
the rename keeps the temp file's mode. ``tempfile.mkstemp`` creates that
file ``0o600``, so every model artifact, registry manifest and cache
entry was private to its owner whatever the umask: a group could not
read a shared registry or cache. Now each gets ``0o666`` less the umask,
as a file ``open()`` creates does, and the writers that used to write in
place keep the mode they had.
"""

import os
import stat

import numpy as np
import pytest

from repro.faults.plan import FaultPlan
from repro.io import save_characterization, save_dataset, save_domain_model
from repro.runtime.cache import ResultCache
from repro.serving import ModelRegistry
from repro.synergy.runner import CharacterizationResult, FrequencySample

from .conftest import synthetic_dataset


@pytest.fixture(params=[(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def mode(request):
    """The mode new files must get under the umask set for the test."""
    umask, expected = request.param
    previous = os.umask(umask)
    yield expected
    os.umask(previous)


def _mode(path):
    return stat.S_IMODE(path.stat().st_mode)


def test_saved_model(fitted_model, tmp_path, mode):
    path = tmp_path / "model.npz"
    save_domain_model(fitted_model, path)
    assert _mode(path) == mode


def test_registered_artifact_and_manifest(model_file, tmp_path, mode):
    registry = ModelRegistry(tmp_path / "registry")
    registry.register(model_file, "toy")
    assert _mode(registry.artifact_path("toy", 1)) == mode
    assert _mode(registry.manifest_path("toy", 1)) == mode


def test_cache_entry(tmp_path, mode):
    cache = ResultCache(tmp_path / "cache")
    key = cache.key_for({"point": 1})
    cache.put(key, {"energy_j": 1.0})
    assert _mode(cache.path_for(key)) == mode


def test_written_dataset_characterization_and_fault_plan(tmp_path, mode):
    sample = FrequencySample(900.0, 1.0, 2.0, np.array([1.0]), np.array([2.0]))
    save_dataset(synthetic_dataset(), tmp_path / "ds.json")
    save_characterization(
        CharacterizationResult("app", "v100", "default", 1282.0, 1.0, 3.0, [sample]),
        tmp_path / "char.json",
    )
    FaultPlan(seed=1).save(tmp_path / "plan.json")
    for name in ("ds.json", "char.json", "plan.json"):
        assert _mode(tmp_path / name) == mode, name


def test_replacing_a_file_gives_the_new_mode(tmp_path, mode):
    cache = ResultCache(tmp_path / "cache")
    key = cache.key_for({"point": 1})
    cache.put(key, {"energy_j": 1.0})
    os.chmod(cache.path_for(key), 0o640)
    cache.put(key, {"energy_j": 2.0})
    assert _mode(cache.path_for(key)) == mode
