"""Regression tests for ``repro train`` on every device, and its sweep gate.

``repro train`` used to normalize every model against the V100's
1282 MHz default clock: on the A100 and H100 no training input had a
sample there, so training aborted, and the MI100 normalized at its
nearest bin while recording 1282. It now shares the lifecycle
retrainer's baseline rule (the snapped default clock, else the top
training bin), and ``--mem-freqs`` on a kind without a memory axis is
rejected instead of silently ignored.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.datasets import default_training_freqs, training_baseline_mhz
from repro.io import load_dataset, load_domain_model
from repro.lifecycle import build_retrainer
from repro.ml import RandomForestRegressor
from repro.modeling import DomainSpecificModel
from repro.serving import ModelRegistry
from repro.specs import LifecycleSpec
from repro.synergy.api import builtin_device

SEED = 42
LIFECYCLE_SPEC = Path(__file__).resolve().parent.parent / "examples" / "specs" / "lifecycle_smoke.json"


def _train(tmp_path, device, *extra):
    model = tmp_path / f"{device}.npz"
    rc = main(
        ["train", "--app", "cronos", "--device", device, "--reps", "1", "--trees", "2",
         "--output", str(model), *extra]
    )
    return rc, model


def _table(device):
    return builtin_device(device, seed=SEED).gpu.spec.core_freqs


@pytest.mark.parametrize("device,freqs", [("a100", "4"), ("h100", "16")])
def test_non_v100_devices_train_at_their_own_default_clock(tmp_path, device, freqs):
    rc, model = _train(tmp_path, device, "--freqs", freqs)
    assert rc == 0
    table = _table(device)
    assert load_domain_model(model).baseline_freq_mhz == float(table.snap(table.default_mhz))


def test_auto_governed_device_records_the_top_training_bin(tmp_path):
    rc, model = _train(tmp_path, "mi100", "--freqs", "4")
    assert rc == 0
    device = builtin_device("mi100", seed=SEED)
    assert device.gpu.spec.core_freqs.default_mhz is None
    top = max(default_training_freqs(device, 4))
    assert load_domain_model(model).baseline_freq_mhz == top


def test_v100_predictions_match_the_old_fixed_1282_baseline(tmp_path):
    dataset_path = tmp_path / "ds.json"
    rc, model = _train(tmp_path, "v100", "--freqs", "4", "--dataset-output", str(dataset_path))
    assert rc == 0
    new = load_domain_model(model)
    assert new.baseline_freq_mhz == pytest.approx(1282.1077, abs=1e-4)
    old = DomainSpecificModel(
        new.feature_names,
        regressor_factory=lambda: RandomForestRegressor(n_estimators=2, random_state=SEED),
        baseline_freq_mhz=1282.0,
    ).fit(load_dataset(dataset_path))
    freqs = np.linspace(135.0, 1597.0, 50)
    for features in ([10.0, 4.0, 4.0], [160.0, 64.0, 64.0]):
        a, b = new.predict_tradeoff(features, freqs), old.predict_tradeoff(features, freqs)
        assert np.array_equal(a.speedups, b.speedups)
        assert np.array_equal(a.normalized_energies, b.normalized_energies)


@pytest.mark.parametrize("app", ["ligen", "cronos"])
def test_mem_freqs_on_a_kind_without_memory_axis_is_an_error(tmp_path, capsys, app):
    rc = main(
        ["train", "--app", app, "--freqs", "2", "--reps", "1", "--trees", "1",
         "--mem-freqs", "810", "--output", str(tmp_path / "m.npz")]
    )
    assert rc == 1
    assert "only wired up for the 'mhd' application" in capsys.readouterr().err
    assert not (tmp_path / "m.npz").exists()


def test_train_and_lifecycle_retrainer_share_one_baseline_rule(tmp_path):
    spec = LifecycleSpec.load(LIFECYCLE_SPEC)
    retrainer = build_retrainer(spec, ModelRegistry(tmp_path / "registry"))
    device = builtin_device(spec.device_name, seed=spec.seed)
    assert retrainer.baseline_freq_mhz == training_baseline_mhz(device, retrainer.freqs_mhz)
