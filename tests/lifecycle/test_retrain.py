"""A retrain writes its candidate artifact once, into the registry."""

import os
import pathlib

from repro.lifecycle import build_retrainer, build_workload
from repro.serving import ModelRegistry
from repro.specs import LifecycleSpec


def test_retrain_creates_one_file_with_the_artifact_bytes(tmp_path, monkeypatch):
    """The candidate is encoded in memory and handed to the registry as
    bytes: the only files a retrain creates are the version's artifact and
    its manifest, and the artifact's bytes are written once."""
    spec = LifecycleSpec.from_record(
        {
            "format": "repro.lifecycle",
            "schema_version": 1,
            "name": "retrain-writes",
            "seed": 5,
            "model": {"registry": "reg", "name": "adv"},
            "workload": {
                "app": "ligen",
                "device": "v100",
                "ligand_counts": [2, 64],
                "atom_counts": [31],
                "fragment_counts": [4],
                "freq_count": 4,
                "repetitions": 1,
                "trees": 4,
            },
            "drift": {"enter_mape": 20.0, "exit_mape": 10.0},
            "epochs": 1,
            "requests_per_epoch": 1,
        },
        base_dir=str(tmp_path),
    )
    registry = ModelRegistry(tmp_path / "reg")
    retrainer = build_retrainer(spec, registry)
    apps = build_workload(spec)

    created, written = [], []
    real_open, real_replace = os.open, os.replace

    def spy_open(path, flags, *args, **kwargs):
        if flags & os.O_CREAT:
            created.append(os.fspath(path))
        return real_open(path, flags, *args, **kwargs)

    def spy_replace(src, dst, *args, **kwargs):
        written.append((os.fspath(dst), pathlib.Path(src).read_bytes()))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy_open)
    monkeypatch.setattr(os, "replace", spy_replace)
    manifest = retrainer.retrain(apps, generation=0)
    monkeypatch.undo()

    artifact = registry.artifact_path("adv", manifest.version)
    data = artifact.read_bytes()
    assert len(created) == len(written) == 2
    assert [dst for dst, content in written if content == data] == [str(artifact)]
    assert {dst for dst, _ in written} == {str(artifact), str(registry.manifest_path("adv", manifest.version))}
    assert manifest.artifact_bytes == len(data)
