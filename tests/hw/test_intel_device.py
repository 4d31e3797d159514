"""Tests for the Intel Max (Level Zero) device — the third SYnergy vendor."""

import numpy as np
import pytest

from repro.hw import create_device, make_intel_max_spec
from repro.kernels.ir import KernelLaunch, KernelSpec
from repro.synergy import SynergyDevice, characterize


def compute_kernel(threads=1_000_000):
    return KernelLaunch(
        KernelSpec("c", float_add=2000, float_mul=2000, global_access=8), threads=threads
    )


class TestSpec:
    def test_vendor_and_default_clock(self):
        spec = make_intel_max_spec()
        assert spec.vendor == "intel"
        assert spec.has_default_frequency
        assert spec.core_freqs.default_mhz is not None

    def test_littles_law_consistency(self):
        spec = make_intel_max_spec()
        in_flight = spec.max_mlp * spec.per_thread_mlp
        needed = spec.mem_bandwidth_bytes_s * spec.mem_latency_ns * 1e-9 / spec.bytes_per_access
        assert in_flight == pytest.approx(needed, rel=0.15)

    def test_frequency_range(self):
        spec = make_intel_max_spec()
        assert spec.core_freqs.min_mhz == pytest.approx(600.0)
        assert spec.core_freqs.max_mhz == pytest.approx(1550.0)


class TestDevice:
    def test_create_by_aliases(self):
        for name in ("max1100", "intel", "pvc"):
            assert create_device(name).vendor == "intel"

    def test_boots_at_default_like_nvidia(self):
        gpu = create_device("max1100")
        assert not gpu.is_auto_mode
        assert gpu.pinned_frequency_mhz == gpu.default_frequency_mhz

    def test_dvfs_behaviour(self):
        gpu = create_device("max1100")
        base = gpu.launch(compute_kernel())
        gpu.set_core_frequency(700.0)
        slow = gpu.launch(compute_kernel())
        assert slow.time_s > base.time_s
        assert slow.power_w < base.power_w

    def test_characterization_protocol_works(self):
        dev = SynergyDevice(create_device("max1100"), seed=0, ideal_sensors=True)

        class App:
            name = "intel-app"

            def run(self, gpu):
                gpu.launch(compute_kernel())

        result = characterize(App(), dev, freqs_mhz=[600.0, 1000.0, 1300.0, 1550.0], repetitions=1)
        assert result.baseline_label == "default configuration"
        sp = result.speedups()
        assert np.all(np.diff(sp) > 0)  # compute-bound: monotone in f
        idx = int(np.argmin(np.abs(result.freqs_mhz - 1300.0)))
        assert sp[idx] == pytest.approx(1.0, abs=1e-6)

    def test_energy_tradeoff_exists(self):
        """The Intel device must show the same DVFS trade-off structure."""
        dev = SynergyDevice(create_device("max1100"), seed=0, ideal_sensors=True)

        class App:
            name = "intel-app"

            def run(self, gpu):
                gpu.launch(compute_kernel())

        result = characterize(
            App(), dev, freqs_mhz=[700.0, 900.0, 1100.0, 1300.0, 1550.0], repetitions=1
        )
        ne = result.normalized_energies()
        # over-clocking costs energy; some down-clock saves it
        assert ne[-1] > 1.05
        assert ne.min() < 1.0
