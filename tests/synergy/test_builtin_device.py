"""``builtin_device`` builds only the device it names.

The lifecycle loop measures every followed advice on a freshly seeded
device (``lifecycle/loop.py::_measure_outcome``), so ``builtin_device``
runs once per measured request. It must read exactly what the default
platform's device reads, without building the platform's other device
or a second spec.
"""

import numpy as np
import pytest

from repro.hw import device as device_module
from repro.hw.device import SimulatedGPU
from repro.hw.specs import DeviceSpec
from repro.synergy.api import Platform, builtin_device

TRUE_VALUES = (1e-3, 0.25, 3.0, 17.5, 120.0)
SEEDS = (0, 7, 2**31 - 1)


def _readings(device):
    device.set_core_frequency(900.0)
    return [
        (device.time_sensor.read(v), device.energy_sensor.read(v)) for v in TRUE_VALUES * 3
    ]


@pytest.mark.parametrize("name", ["v100", "mi100"])
@pytest.mark.parametrize("seed", SEEDS)
def test_readings_equal_the_default_platform_for_int_seeds(name, seed):
    ours = builtin_device(name, seed=seed)
    reference = Platform.default(seed=seed).get_device(name)
    assert ours.name == reference.name
    assert _readings(ours) == _readings(reference)


@pytest.mark.parametrize("name", ["v100", "mi100"])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_generator_seed_advances_as_the_default_platform_advances_it(name, seed):
    ours_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ours = builtin_device(name, seed=ours_rng)
    reference = Platform.default(seed=reference_rng).get_device(name)
    assert _readings(ours) == _readings(reference)
    assert ours_rng.bit_generator.state == reference_rng.bit_generator.state


def test_n_v100_handles_build_n_gpus_on_one_spec(monkeypatch):
    device_module._builtin_spec.cache_clear()
    gpus, specs = [], []
    gpu_init, spec_post_init = SimulatedGPU.__init__, DeviceSpec.__post_init__

    def counting_gpu_init(self, spec):
        gpus.append(spec.name)
        gpu_init(self, spec)

    def counting_spec_post_init(self):
        specs.append(self.name)
        spec_post_init(self)

    monkeypatch.setattr(SimulatedGPU, "__init__", counting_gpu_init)
    monkeypatch.setattr(DeviceSpec, "__post_init__", counting_spec_post_init)
    handles = [builtin_device("v100", seed=seed) for seed in range(8)]
    assert gpus == ["NVIDIA V100"] * 8
    assert specs == ["NVIDIA V100"]
    assert len({id(h.gpu) for h in handles}) == 8
    assert len({id(h.gpu.spec) for h in handles}) == 1
