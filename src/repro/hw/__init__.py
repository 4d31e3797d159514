"""Simulated GPU hardware: specs, DVFS, timing, power, sensors, devices.

This package replaces the paper's physical NVIDIA V100 and AMD MI100 with
analytic simulations (see DESIGN.md §2 for the substitution argument):

- :mod:`repro.hw.specs` — device descriptions and V100/MI100 factories
- :mod:`repro.hw.dvfs` — frequency tables and voltage/frequency curves
- :mod:`repro.hw.perf` — roofline timing model (compute/bandwidth/latency)
- :mod:`repro.hw.power` — CMOS power model
- :mod:`repro.hw.governor` — AMD-style automatic frequency governor
- :mod:`repro.hw.sensors` — noisy energy/time sensors
- :mod:`repro.hw.device` — the :class:`SimulatedGPU` launch engine
"""

from repro.hw.device import LaunchResult, SimulatedGPU, create_device
from repro.hw.dvfs import FrequencyTable, VoltageCurve
from repro.hw.governor import AutoGovernor
from repro.hw.perf import BatchTiming, KernelTiming, RooflineTimingModel
from repro.hw.power import PowerBreakdown, PowerModel
from repro.hw.sensors import EnergySensor, TimeSensor
from repro.hw.specs import (
    DeviceSpec,
    make_intel_max_spec,
    make_mi100_spec,
    make_v100_spec,
    scale_spec,
)

__all__ = [
    "AutoGovernor",
    "BatchTiming",
    "DeviceSpec",
    "EnergySensor",
    "FrequencyTable",
    "KernelTiming",
    "LaunchResult",
    "PowerBreakdown",
    "PowerModel",
    "RooflineTimingModel",
    "SimulatedGPU",
    "TimeSensor",
    "VoltageCurve",
    "create_device",
    "make_intel_max_spec",
    "make_mi100_spec",
    "make_v100_spec",
    "scale_spec",
]
