"""Every baseline-clock choice follows the clock ``reset_frequency`` runs.

``DeviceSpec.default_clock_mhz`` is the table's declared default only on
devices that reset to it (``has_default_frequency``), and ``None`` on
auto-governed ones. Training sweeps and baselines, per-kernel plans and
their fallback, and the adaptive sweep's seeds all key on it, so an AMD
table that declares a default clock behaves exactly like the same table
without one, and the six built-in devices keep their results.
"""

import dataclasses

import pytest

from repro.cronos.gpu_costs import step_launches
from repro.cronos.grid import Grid3D
from repro.experiments.datasets import default_training_freqs, training_baseline_mhz
from repro.hw.device import SimulatedGPU, create_device
from repro.hw.dvfs import FrequencyTable
from repro.hw.specs import make_mi100_spec
from repro.ligen.app import LigenApplication
from repro.modeling.adaptive import adaptive_characterize
from repro.synergy.api import BUILTIN_DEVICES, SynergyDevice
from repro.synergy.tuning import PerKernelDVFS, plan_per_kernel_frequencies

BUILTIN = {name: create_device(name).spec for name in BUILTIN_DEVICES}
DECLARED = dataclasses.replace(
    make_mi100_spec(),
    core_freqs=FrequencyTable.linear(300.0, 1502.0, 110, default_mhz=1300.0),
)
UNDECLARED = dataclasses.replace(DECLARED, core_freqs=FrequencyTable.linear(300.0, 1502.0, 110))


def _device(spec):
    return SynergyDevice(SimulatedGPU(spec), seed=5)


def _app():
    return LigenApplication(n_ligands=64, n_atoms=31, n_fragments=4)


def _choices(spec):
    """What each baseline-clock site picks on ``spec``."""
    freqs = default_training_freqs(_device(spec), 8)
    launches = step_launches(Grid3D(40, 16, 16))
    plan = plan_per_kernel_frequencies(launches, SimulatedGPU(spec), freq_count=6)
    adaptive = adaptive_characterize(_app(), _device(spec), budget=5, repetitions=1)
    return {
        "training_freqs": freqs,
        "training_baseline": training_baseline_mhz(_device(spec), freqs),
        "plan": plan,
        "fallback": PerKernelDVFS(SimulatedGPU(spec), plan).fallback_mhz,
        "adaptive_visits": adaptive.visit_order,
        "adaptive_freqs": list(adaptive.result.freqs_mhz),
    }


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_builtin_devices_keep_their_default_clock(name):
    spec = BUILTIN[name]
    assert spec.default_clock_mhz == spec.core_freqs.default_mhz
    assert (spec.default_clock_mhz is not None) == spec.has_default_frequency


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_builtin_choices_use_the_declared_default_or_the_top_bin(name):
    spec = BUILTIN[name]
    choices = _choices(spec)
    default = spec.core_freqs.default_mhz
    if default is None:
        assert choices["training_baseline"] == max(choices["training_freqs"])
        assert choices["fallback"] == spec.core_freqs.max_mhz
    else:
        assert choices["training_baseline"] == default
        assert default in choices["training_freqs"]
        assert choices["fallback"] == default
        assert default in choices["adaptive_freqs"]


def test_amd_declared_default_is_not_a_default_clock():
    assert DECLARED.core_freqs.default_mhz == pytest.approx(1303.5, abs=0.1)
    assert DECLARED.default_clock_mhz is None


def test_amd_declared_default_changes_no_choice():
    declared, undeclared = _choices(DECLARED), _choices(UNDECLARED)
    assert declared == undeclared
    assert declared["fallback"] == 1502.0
    assert declared["training_baseline"] == max(declared["training_freqs"])
