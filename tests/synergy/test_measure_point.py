"""One §5.1 sweep point for the runner and the campaign engine.

Serial, replay and engine sweeps all measure through
``repro.synergy.runner.measure_point`` and label their baseline with one
descriptor keyed on ``DeviceSpec.has_default_frequency``, the predicate
``reset_frequency`` follows. So every path reports the clock the
baseline actually ran at, including on an AMD-vendor table that
declares a default clock (its baseline runs under the auto governor).
"""

import dataclasses

import pytest

from repro.cronos.app import CronosApplication
from repro.errors import ConfigurationError
from repro.hw.device import SimulatedGPU, create_device
from repro.hw.dvfs import FrequencyTable
from repro.hw.specs import make_mi100_spec
from repro.runtime.engine import CampaignEngine
from repro.synergy.api import BUILTIN_DEVICES, SynergyDevice
from repro.synergy.runner import characterize

SPECS = {name: create_device(name).spec for name in BUILTIN_DEVICES}
SPECS["mi100-declared-default"] = dataclasses.replace(
    make_mi100_spec(),
    core_freqs=FrequencyTable.linear(300.0, 1502.0, 110, default_mhz=1300.0),
)


def _reset_clock(spec):
    """``(label, clock)`` of what ``reset_frequency`` actually runs."""
    gpu = SimulatedGPU(spec)
    gpu.set_core_frequency(spec.core_freqs.max_mhz)
    gpu.reset_frequency()
    if gpu.is_auto_mode:
        return "AMD auto freq", None
    return "default configuration", gpu.pinned_frequency_mhz


def _sweeps(app, spec, freqs):
    """The same sweep through serial, replay and the campaign engine."""
    for method in ("serial", "replay"):
        device = SynergyDevice(SimulatedGPU(spec), seed=5)
        yield characterize(app, device, freqs_mhz=freqs, repetitions=2, method=method)
    engine = CampaignEngine(jobs=1, campaign_seed=5)
    yield engine.characterize(app, spec, freqs_mhz=freqs, repetitions=2)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_path_labels_the_baseline_reset_runs(name):
    spec = SPECS[name]
    app = CronosApplication.from_size(24, 24, 24, n_steps=2)
    freqs = [spec.core_freqs.min_mhz, spec.core_freqs.max_mhz]
    expected = _reset_clock(spec)
    for result in _sweeps(app, spec, freqs):
        assert (result.baseline_label, result.baseline_freq_mhz) == expected


def test_declared_default_on_amd_runs_the_governor():
    spec = SPECS["mi100-declared-default"]
    assert spec.core_freqs.default_mhz is not None
    assert _reset_clock(spec) == ("AMD auto freq", None)


@dataclasses.dataclass(frozen=True)
class _IdleApp:
    """Issues no launches, so its baseline measures nothing."""

    name: str = "idle"

    def run(self, gpu) -> None:
        pass


@pytest.mark.parametrize("method", ["serial", "replay"])
def test_unmeasurable_baseline_rejected_on_every_path(method):
    spec = SPECS["v100"]
    device = SynergyDevice(SimulatedGPU(spec), seed=1)
    with pytest.raises(ConfigurationError, match="below the sensor resolution"):
        characterize(_IdleApp(), device, freqs_mhz=[900.0], repetitions=1, method=method)
    engine = CampaignEngine(jobs=1, method=method)
    with pytest.raises(ConfigurationError, match="below the sensor resolution"):
        engine.characterize(_IdleApp(), spec, freqs_mhz=[900.0], repetitions=1)
