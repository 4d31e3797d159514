"""Batched evaluation at every pinned memory clock is bitwise serial.

The device's batched evaluator caches one column per ``(core, mem)``
clock pair, and the replay engine reads through it. These properties pin
every memory clock of the A100 and H100, with and without a power cap
and a pinned core clock, and check:

- a launch batch run through ``evaluate_batch`` (via
  ``ReplayPlan.point_values``) equals ``launch_many``: per-launch
  results, counters, launch counts and throttle counts;
- a replayed characterization equals the serial one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cronos.app import CronosApplication
from repro.hw.device import SimulatedGPU
from repro.hw.specs import make_a100_spec, make_h100_spec
from repro.kernels.ir import KernelLaunch, KernelSpec
from repro.synergy.api import SynergyDevice
from repro.synergy.runner import characterize
from tests.conftest import launch_batched

#: Every (device, memory clock) pair of the A100 and H100.
MEMORY_CLOCKS = [
    pytest.param(spec, float(mem), id=f"{key}-{mem:.0f}")
    for key, spec in (("a100", make_a100_spec()), ("h100", make_h100_spec()))
    for mem in spec.mem_freq_table.freqs_mhz
]


@st.composite
def clock_states(draw, spec):
    """``(power cap or None, pinned core clock or None)`` on ``spec``."""
    cap = None
    if draw(st.booleans()):
        idle = SimulatedGPU(spec).power_model.idle_power_w(spec.core_freqs.min_mhz)
        cap = idle + draw(st.floats(min_value=0.02, max_value=0.6)) * (spec.tdp_w - idle)
    core = draw(st.none() | st.sampled_from([float(f) for f in spec.core_freqs.freqs_mhz]))
    return cap, core


@st.composite
def launch_lists(draw):
    """A launch sequence over a few kernels, with repeats for dedup to collapse."""
    kernels = [
        KernelSpec(
            f"k{i}",
            float_add=draw(st.floats(min_value=1.0, max_value=2000.0)),
            float_mul=draw(st.floats(min_value=0.0, max_value=2000.0)),
            special_fn=draw(st.floats(min_value=0.0, max_value=50.0)),
            global_access=draw(st.floats(min_value=0.0, max_value=200.0)),
        )
        for i in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    launch = st.builds(
        KernelLaunch,
        st.sampled_from(kernels),
        threads=st.integers(min_value=1, max_value=4_000_000),
        work_iterations=st.sampled_from([1.0, 2.0, 3.0]),
    )
    first = draw(st.lists(launch, min_size=1, max_size=8))
    return first + first[: draw(st.integers(min_value=0, max_value=len(first)))]


def _device(spec, mem, state):
    cap, core = state
    gpu = SimulatedGPU(spec)
    gpu.set_memory_frequency(mem)
    gpu.set_power_cap(cap)
    if core is not None:
        gpu.set_core_frequency(core)
    return gpu


def _samples(result):
    return [
        (s.freq_mhz, s.time_s, s.energy_j, s.rep_times_s.tobytes(), s.rep_energies_j.tobytes())
        for s in result.samples
    ]


def _counters(gpu):
    return gpu.time_counter_s, gpu.energy_counter_j, gpu.launch_count, gpu.throttle_count


@pytest.mark.parametrize("spec, mem", MEMORY_CLOCKS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_launch_batch_equals_launch_many(spec, mem, data):
    state = data.draw(clock_states(spec))
    launches = data.draw(launch_lists())
    serial, batched = _device(spec, mem, state), _device(spec, mem, state)
    ref = serial.launch_many(launches)
    got = launch_batched(batched, launches)
    assert [(r.kernel_name, r.core_mhz, r.time_s, r.energy_j, r.timing) for r in ref] == got
    assert _counters(serial) == _counters(batched)


@pytest.mark.parametrize("spec, mem", MEMORY_CLOCKS)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_replay_equals_serial(spec, mem, data):
    state = data.draw(clock_states(spec))
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    app = CronosApplication.from_size(16, 16, 16, n_steps=1)
    freqs = [float(f) for f in spec.core_freqs.subsample(3)]
    runs = []
    for method in ("serial", "replay"):
        device = SynergyDevice(_device(spec, mem, state), seed=seed)
        result = characterize(app, device, freqs_mhz=freqs, repetitions=2, method=method)
        baseline = (result.baseline_time_s, result.baseline_energy_j)
        runs.append((baseline, _samples(result), _counters(device.gpu)))
    assert runs[0] == runs[1]
