"""Unit tests for the roofline timing model."""

import pytest

from repro.errors import KernelError
from repro.hw.perf import RooflineTimingModel
from repro.hw.specs import make_mi100_spec, make_v100_spec
from repro.kernels.ir import KernelLaunch, KernelSpec


@pytest.fixture
def model():
    return RooflineTimingModel(make_v100_spec())


def compute_kernel(threads=1_000_000):
    spec = KernelSpec("k_compute", float_add=2000, float_mul=2000, global_access=4)
    return KernelLaunch(spec, threads=threads)


def memory_kernel(threads=1_000_000):
    spec = KernelSpec("k_mem", float_add=8, global_access=64)
    return KernelLaunch(spec, threads=threads)


class TestComputeBound:
    def test_regime_detected(self, model):
        t = model.time(compute_kernel(), 1282.0)
        assert t.regime == "compute"
        assert t.u_comp == pytest.approx(1.0, abs=0.01)

    def test_time_scales_inversely_with_frequency(self, model):
        t_lo = model.time(compute_kernel(), 700.0)
        t_hi = model.time(compute_kernel(), 1400.0)
        assert t_lo.exec_s / t_hi.exec_s == pytest.approx(2.0, rel=0.02)

    def test_time_scales_linearly_with_threads(self, model):
        t1 = model.time(compute_kernel(500_000), 1282.0)
        t2 = model.time(compute_kernel(1_000_000), 1282.0)
        assert t2.t_comp_s / t1.t_comp_s == pytest.approx(2.0, rel=1e-6)

    def test_is_compute_bound_helper(self, model):
        assert model.is_compute_bound(compute_kernel())
        assert not model.is_compute_bound(memory_kernel())


class TestMemoryBound:
    def test_regime_detected(self, model):
        t = model.time(memory_kernel(), 1282.0)
        assert t.regime == "bandwidth"

    def test_time_independent_of_core_clock(self, model):
        t_lo = model.time(memory_kernel(), 900.0)
        t_hi = model.time(memory_kernel(), 1597.0)
        assert t_lo.exec_s == pytest.approx(t_hi.exec_s, rel=0.02)

    def test_bandwidth_time_matches_peak(self, model):
        launch = memory_kernel()
        expected = launch.total_bytes_global(8.0) / 900e9
        assert model.bandwidth_time_s(launch) == pytest.approx(expected)

    def test_u_comp_decreases_with_frequency(self, model):
        """Down-clocking raises the compute-busy fraction (less stall)."""
        u_lo = model.time(memory_kernel(), 700.0).u_comp
        u_hi = model.time(memory_kernel(), 1597.0).u_comp
        assert u_lo > u_hi


class TestLatencyBound:
    def test_small_launch_is_latency_bound(self, model):
        t = model.time(memory_kernel(threads=1000), 1282.0)
        assert t.regime in ("latency", "overhead")

    def test_latency_floor_independent_of_threads_below_mlp(self, model):
        spec = make_v100_spec()
        t1 = model.latency_time_s(memory_kernel(threads=100))
        t2 = model.latency_time_s(memory_kernel(threads=spec.max_mlp // 2))
        assert t1 == pytest.approx(t2)

    def test_latency_serializes_above_mlp(self, model):
        spec = make_v100_spec()
        t1 = model.latency_time_s(memory_kernel(threads=spec.max_mlp))
        t2 = model.latency_time_s(memory_kernel(threads=4 * spec.max_mlp))
        assert t2 == pytest.approx(4 * t1, rel=1e-6)

    def test_no_latency_without_global_access(self, model):
        spec = KernelSpec("pure", float_add=100)
        assert model.latency_time_s(KernelLaunch(spec, threads=10)) == 0.0


class TestOverheadAndShape:
    def test_launch_overhead_included(self, model):
        t = model.time(compute_kernel(64), 1597.0)
        assert t.time_s == pytest.approx(t.exec_s + t.overhead_s)
        assert t.overhead_s == pytest.approx(2.5e-6)

    def test_smooth_max_at_least_max(self, model):
        t = model.time(memory_kernel(), 1282.0)
        assert t.exec_s >= max(t.t_comp_s, t.t_bw_s, t.t_lat_s)

    def test_smooth_max_bounded(self, model):
        """p-norm with 3 terms inflates by at most 3**(1/p)."""
        t = model.time(memory_kernel(), 1282.0)
        assert t.exec_s <= 3 ** (1 / 6.0) * max(t.t_comp_s, t.t_bw_s, t.t_lat_s)

    def test_width_util_small_launch(self, model):
        t = model.time(compute_kernel(threads=100), 1282.0)
        assert t.width_util < 0.05

    def test_width_util_saturates(self, model):
        t = model.time(compute_kernel(threads=10_000_000), 1282.0)
        assert t.width_util == pytest.approx(1.0, abs=1e-6)

    def test_occupancy(self, model):
        spec = make_v100_spec()
        t = model.time(compute_kernel(threads=spec.max_resident_threads // 2), 1282.0)
        assert t.occupancy == pytest.approx(0.5)


class TestValidation:
    def test_frequency_out_of_range(self, model):
        with pytest.raises(KernelError):
            model.time(compute_kernel(), 50.0)

    def test_rejects_non_launch(self, model):
        with pytest.raises(KernelError):
            model.time("not a launch", 1282.0)


class TestDeviceOverrides:
    def test_mi100_special_fn_cost_applied(self):
        mi = RooflineTimingModel(make_mi100_spec())
        v1 = RooflineTimingModel(make_v100_spec())
        spec = KernelSpec("sfu", special_fn=100, global_access=1)
        launch = KernelLaunch(spec, threads=100_000)
        # per-cycle-normalized compute times: MI100 must pay extra cycles
        cycles_mi = mi.op_costs["special_fn"]
        cycles_v1 = v1.op_costs["special_fn"]
        assert cycles_mi > cycles_v1
