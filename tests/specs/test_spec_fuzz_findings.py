"""Regression tests for the crashes the device-table and manifest fuzz found.

Each was an untyped exception escaping a seam that promises a typed
error or a diagnostic:

- a device table whose ``voltage.v_max`` makes ``v_max^2 * f_max``
  overflow loaded fine, then crashed ``repro lint`` with a bare
  ``OverflowError`` from the power-budget check, which also stopped
  every other file in the run from being linted;
- a stored model manifest whose payload holds a non-finite number made
  the registry raise ``ValueError`` while re-digesting it;
- a manifest without ``schema_version`` linted clean although no
  registry reads it.
"""

import json
import math
import shutil
from pathlib import Path

import pytest

from repro.analysis import has_errors
from repro.cli import main
from repro.errors import ModelIntegrityError, RegistryError, SpecError
from repro.hw.dvfs import VoltageCurve
from repro.serving.registry import ModelRegistry
from repro.specs import check_record, load_device_table

EXAMPLES = Path(__file__).resolve().parent.parent.parent / "examples" / "specs"


def _overflowing_table(tmp_path):
    record = json.loads((EXAMPLES / "device_v100.json").read_text(encoding="utf-8"))
    record["voltage"]["v_max"] = 1e300
    path = tmp_path / "device_overflow.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


def test_voltage_curve_rejects_an_overflowing_top_bin():
    with pytest.raises(ValueError, match="overflows"):
        VoltageCurve(v_min=0.7, v_max=1e300, f_min_mhz=135.0, f_knee_mhz=900.0, f_max_mhz=1597.0)


def test_load_device_table_raises_spec_error_on_overflow(tmp_path):
    with pytest.raises(SpecError, match="overflows"):
        load_device_table(_overflowing_table(tmp_path))


def test_lint_reports_the_overflow_and_lints_the_rest(tmp_path, capsys):
    bad = _overflowing_table(tmp_path)
    shutil.copy(EXAMPLES / "device_a100.json", tmp_path / "device_a100.json")
    (tmp_path / "broken.json").write_text('{"format": "repro.device_spec"}', encoding="utf-8")
    rc = main(["lint", "--format", "json", "--no-self-check", str(tmp_path)])
    diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
    assert rc == 1
    files = {Path(d["file"]).name for d in diagnostics}
    assert files == {bad.name, "broken.json"}
    assert any("overflows" in d["message"] for d in diagnostics)


def _stored_manifest(tmp_path, mutate):
    registry = ModelRegistry(tmp_path / "registry")
    model = tmp_path / "model.npz"
    _write_model(model)
    registry.register(model, "adv", app="cronos")
    path = registry.manifest_path("adv", 1)
    record = json.loads(path.read_text(encoding="utf-8"))
    mutate(record)
    path.write_text(json.dumps(record), encoding="utf-8")
    return registry, record


def _write_model(path):
    from repro.io import save_domain_model
    from repro.ml import RandomForestRegressor
    from repro.modeling import DomainSpecificModel
    from repro.modeling.dataset import EnergyDataset, EnergySample

    dataset = EnergyDataset(feature_names=("size",))
    for size in (1.0, 2.0):
        for freq in (600.0, 1282.0):
            dataset.add(
                EnergySample(
                    features=(size,), freq_mhz=freq, time_s=size / freq, energy_j=size * freq
                )
            )
    model = DomainSpecificModel(
        ("size",),
        regressor_factory=lambda: RandomForestRegressor(n_estimators=1, random_state=0),
    ).fit(dataset)
    save_domain_model(model, path)


def test_registry_reports_a_non_finite_manifest_payload_as_corrupt(tmp_path):
    def poison(record):
        record["manifest"]["baseline_freq_mhz"] = math.nan

    registry, _ = _stored_manifest(tmp_path, poison)
    with pytest.raises(ModelIntegrityError, match="digest mismatch"):
        registry.manifest("adv", 1)


def test_lint_rejects_a_manifest_no_registry_reads(tmp_path):
    registry, record = _stored_manifest(tmp_path, lambda r: r.pop("schema_version"))
    assert has_errors(check_record(record, file="manifest.json"))
    with pytest.raises(RegistryError, match="schema_version"):
        registry.manifest("adv", 1)
