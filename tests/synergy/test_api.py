"""Unit tests for the SYnergy-style device API."""

import pytest

from repro.errors import DeviceError
from repro.kernels.ir import KernelLaunch, KernelSpec
from repro.synergy.api import Platform


def k(threads=100_000):
    return KernelLaunch(KernelSpec("k", float_add=500, global_access=8), threads=threads)


class TestPlatform:
    def test_default_platform_has_both_devices(self):
        p = Platform.default(seed=0)
        assert p.device_names() == ["mi100", "v100"]

    def test_get_device_case_insensitive(self):
        p = Platform.default(seed=0)
        assert p.get_device("V100").vendor == "nvidia"

    def test_unknown_device(self):
        p = Platform.default(seed=0)
        with pytest.raises(DeviceError):
            p.get_device("a100")

    def test_empty_platform_rejected(self):
        with pytest.raises(DeviceError):
            Platform({})


class TestSynergyDevice:
    def test_passthrough_frequency_interface(self, v100_dev):
        f = v100_dev.set_core_frequency(900.0)
        assert f in v100_dev.gpu.spec.core_freqs
        v100_dev.reset_frequency()
        assert v100_dev.gpu.pinned_frequency_mhz == v100_dev.default_frequency_mhz

    def test_supported_frequencies(self, v100_dev):
        assert len(v100_dev.supported_frequencies()) == 196

    def test_name_and_vendor(self, v100_dev):
        assert "V100" in v100_dev.name
        assert v100_dev.vendor == "nvidia"


class TestProfileRegion:
    def test_context_manager_measures(self, v100_dev):
        with v100_dev.profile() as region:
            v100_dev.gpu.launch(k())
        assert region.time_s is not None and region.time_s > 0
        assert region.energy_j is not None and region.energy_j > 0

    def test_true_values_recorded(self, ideal_v100_dev):
        with ideal_v100_dev.profile() as region:
            ideal_v100_dev.gpu.launch(k())
        assert region.time_s == pytest.approx(region.true_time_s, rel=1e-9)

    def test_noise_present_by_default(self, v100_dev):
        readings = []
        for _ in range(6):
            with v100_dev.profile() as region:
                v100_dev.gpu.launch(k(threads=2_000_000))
            readings.append(region.energy_j)
        assert len(set(readings)) > 1  # sensor noise differentiates reps

    def test_nested_regions_are_independent(self, ideal_v100_dev):
        outer = ideal_v100_dev.profile().__enter__()
        ideal_v100_dev.gpu.launch(k())
        with ideal_v100_dev.profile() as inner:
            ideal_v100_dev.gpu.launch(k())
        outer.stop()
        assert outer.true_time_s == pytest.approx(2 * inner.true_time_s, rel=1e-6)

    def test_unstarted_region_stop_raises(self, v100_dev):
        region = v100_dev.profile()
        with pytest.raises(DeviceError):
            region.stop()

    def test_exception_skips_measurement(self, v100_dev):
        region = v100_dev.profile()
        try:
            with region:
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert region.time_s is None
