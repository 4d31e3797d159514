"""Unit tests for board power capping."""

import pytest

from repro.errors import DeviceError
from repro.kernels.ir import KernelLaunch, KernelSpec


def hot_kernel(threads=2_000_000):
    spec = KernelSpec("hot", float_add=2000, float_mul=2000, global_access=24)
    return KernelLaunch(spec, threads=threads)


def cool_kernel():
    spec = KernelSpec("cool", float_add=10, global_access=4)
    return KernelLaunch(spec, threads=2000)


class TestPowerCap:
    def test_default_uncapped(self, v100):
        assert v100.power_cap_w is None
        r = v100.launch(hot_kernel())
        assert v100.throttle_count == 0

    def test_cap_enforced(self, v100):
        v100.set_power_cap(150.0)
        r = v100.launch(hot_kernel())
        assert r.power_w <= 150.0 + 1e-6
        assert v100.throttle_count == 1

    def test_throttle_reduces_clock(self, v100):
        uncapped = v100.launch(hot_kernel())
        v100.set_power_cap(150.0)
        capped = v100.launch(hot_kernel())
        assert capped.core_mhz < uncapped.core_mhz
        assert capped.time_s > uncapped.time_s

    def test_cool_kernel_not_throttled(self, v100):
        v100.set_power_cap(150.0)
        r = v100.launch(cool_kernel())
        assert v100.throttle_count == 0
        assert r.core_mhz == v100.default_frequency_mhz

    def test_cap_cleared(self, v100):
        v100.set_power_cap(150.0)
        v100.set_power_cap(None)
        v100.launch(hot_kernel())
        assert v100.throttle_count == 0

    def test_tighter_cap_lower_clock(self, v100):
        v100.set_power_cap(200.0)
        loose = v100.launch(hot_kernel())
        v100.set_power_cap(120.0)
        tight = v100.launch(hot_kernel())
        assert tight.core_mhz < loose.core_mhz
        assert tight.power_w <= 120.0 + 1e-6

    def test_cap_below_idle_rejected(self, v100):
        with pytest.raises(DeviceError):
            v100.set_power_cap(10.0)

    def test_cap_interacts_with_pinned_clock(self, v100):
        """The cap may only lower the clock, never raise it."""
        v100.set_core_frequency(600.0)
        v100.set_power_cap(280.0)
        r = v100.launch(hot_kernel())
        assert r.core_mhz <= 600.1

    def test_cap_with_auto_governor(self, mi100):
        mi100.set_power_cap(180.0)
        r = mi100.launch(hot_kernel())
        assert r.power_w <= 180.0 + 1e-6

    def test_capped_run_uses_less_power_more_time(self, v100):
        """Power capping trades time for power (Ramesh et al. behaviour)."""
        base = v100.launch(hot_kernel())
        v100.set_power_cap(140.0)
        capped = v100.launch(hot_kernel())
        assert capped.power_w < base.power_w
        assert capped.time_s > base.time_s
