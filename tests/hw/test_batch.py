"""Batched launch evaluation: SoA batches, vectorized models, evaluate_batch.

The contract under test is *bitwise* equivalence with the scalar path:
``time_batch`` vs ``time``, ``power_batch``/``energy_batch`` vs
``breakdown``, and a launch batch run through ``evaluate_batch`` (via
``ReplayPlan.point_values``, as the replay engine runs it) vs the serial
``launch_many`` loop — including counter trajectories, governor
resolution and power-cap throttle accounting.
"""

import numpy as np
import pytest

from repro.errors import DeviceError, KernelError
from repro.hw.device import create_device
from repro.hw.perf import RooflineTimingModel
from repro.hw.power import PowerModel
from repro.hw.specs import make_mi100_spec, make_v100_spec
from repro.kernels.batch import KernelLaunchBatch
from repro.kernels.ir import KernelLaunch, KernelSpec
from tests.conftest import launch_batched, timing_at


def _random_launches(rng, n):
    """A randomized launch sequence with deliberate repeats."""
    specs = []
    for i in range(max(2, n // 3)):
        specs.append(
            KernelSpec(
                f"k{i}",
                int_add=float(rng.integers(0, 200)),
                float_add=float(rng.integers(0, 1000)),
                float_mul=float(rng.integers(0, 1000)),
                special_fn=float(rng.integers(0, 40)),
                global_access=float(rng.integers(0, 120)),
                local_access=float(rng.integers(0, 60)),
            )
        )
    launches = []
    for _ in range(n):
        spec = specs[int(rng.integers(0, len(specs)))]
        launches.append(
            KernelLaunch(
                spec,
                threads=int(rng.integers(1, 2_000_000)),
                work_iterations=float(rng.integers(1, 4)),
            )
        )
    # Force duplicates so dedup has something to do.
    launches.extend(launches[: n // 2])
    return launches


class TestKernelLaunchBatch:
    def test_dedup_and_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        launches = _random_launches(rng, 12)
        batch = KernelLaunchBatch.from_launches(launches)
        assert batch.n_launches == len(launches)
        assert batch.n_unique < len(launches)
        assert int(batch.counts.sum()) == len(launches)
        # inverse reconstructs the original sequence exactly
        assert [batch.unique[i] for i in batch.inverse] == launches

    def test_identical_launches_collapse_to_one(self):
        launch = KernelLaunch(KernelSpec("k", float_add=10.0), threads=256)
        batch = KernelLaunchBatch.from_launches([launch] * 7)
        assert batch.n_unique == 1
        assert int(batch.counts[0]) == 7
        assert len(batch) == 7

    def test_empty_sequence(self):
        batch = KernelLaunchBatch.from_launches([])
        assert batch.n_unique == 0 and batch.n_launches == 0
        assert batch.features.shape == (0, 10)

    def test_rejects_non_launch(self):
        with pytest.raises(KernelError):
            KernelLaunchBatch.from_launches([object()])

    def test_arrays_read_only(self):
        launch = KernelLaunch(KernelSpec("k", float_add=1.0), threads=1)
        batch = KernelLaunchBatch.from_launches([launch])
        with pytest.raises(ValueError):
            batch.counts[0] = 99


@pytest.mark.parametrize("make_spec", [make_v100_spec, make_mi100_spec])
class TestTimeBatchBitwise:
    def test_matches_scalar_time(self, make_spec):
        spec = make_spec()
        timing = RooflineTimingModel(spec)
        rng = np.random.default_rng(1)
        launches = _random_launches(rng, 15)
        batch = KernelLaunchBatch.from_launches(launches)
        freqs = [float(f) for f in spec.core_freqs.subsample(6)]
        bt = timing.time_batch(batch, freqs)
        for i, launch in enumerate(batch.unique):
            for j, f in enumerate(freqs):
                ref = timing.time(launch, f)
                got = timing_at(bt, i, j)
                assert got.time_s == ref.time_s
                assert got.exec_s == ref.exec_s
                assert got.t_comp_s == ref.t_comp_s
                assert got.t_bw_s == ref.t_bw_s
                assert got.t_lat_s == ref.t_lat_s
                assert got.u_comp == ref.u_comp
                assert got.u_mem == ref.u_mem
                assert got.width_util == ref.width_util
                assert got.occupancy == ref.occupancy
                assert got.regime == ref.regime

    def test_power_energy_batch_match_scalar(self, make_spec):
        spec = make_spec()
        power = PowerModel(spec)
        rng = np.random.default_rng(2)
        freqs = np.array([float(f) for f in spec.core_freqs.subsample(5)])
        u_comp = rng.uniform(0.0, 1.0, size=(4, freqs.size))
        u_mem = rng.uniform(0.0, 1.0, size=(4, freqs.size))
        exec_s = rng.uniform(1e-6, 1e-2, size=(4, freqs.size))
        p = power.power_batch(freqs[None, :], u_comp, u_mem)
        e = power.energy_batch(freqs[None, :], u_comp, u_mem, exec_s, idle_s=1e-5)
        for i in range(4):
            for j, f in enumerate(freqs):
                ref = power.breakdown(float(f), u_comp[i, j], u_mem[i, j])
                assert p[i, j] == ref.total_w
                ref_e = power.energy_j(
                    float(f), u_comp[i, j], u_mem[i, j], exec_s[i, j], idle_s=1e-5
                )
                assert e[i, j] == ref_e

    def test_invalid_frequency_rejected(self, make_spec):
        spec = make_spec()
        timing = RooflineTimingModel(spec)
        launch = KernelLaunch(KernelSpec("k", float_add=10.0), threads=64)
        batch = KernelLaunchBatch.from_launches([launch])
        with pytest.raises(KernelError):
            timing.time_batch(batch, [1e9])

    def test_no_work_kernel_rejected(self, make_spec):
        # KernelSpec refuses zero-op kernels, so hand-build a batch with
        # an all-zero feature row to reach the defensive no-work check.
        spec = make_spec()
        timing = RooflineTimingModel(spec)
        launch = KernelLaunch(KernelSpec("k", float_add=10.0), threads=64)
        batch = KernelLaunchBatch(
            unique=(launch,),
            counts=np.array([1], dtype=np.int64),
            inverse=np.zeros(1, dtype=np.intp),
            features=np.zeros((1, 10)),
            threads=np.array([64], dtype=np.int64),
            work_iterations=np.array([1.0]),
        )
        freq = float(spec.core_freqs.freqs_mhz[-1])
        with pytest.raises(KernelError):
            timing.time_batch(batch, [freq])


@pytest.mark.parametrize("device_name", ["v100", "mi100"])
@pytest.mark.parametrize("power_cap", [None, 250.0])
class TestLaunchBatchEquivalence:
    def test_matches_serial_launch_many(self, device_name, power_cap):
        """Exact per-launch results AND exact counter trajectories, under
        pinned clocks, the auto governor (mi100 default) and power caps."""
        serial = create_device(device_name)
        batched = create_device(device_name)
        if power_cap is not None:
            serial.set_power_cap(power_cap)
            batched.set_power_cap(power_cap)
        rng = np.random.default_rng(3)
        launches = _random_launches(rng, 20)

        ref = serial.launch_many(launches)
        got = launch_batched(batched, launches)

        assert len(ref) == len(got)
        for a, (name, core_mhz, time_s, energy_j, timing) in zip(ref, got):
            assert a.kernel_name == name
            assert a.core_mhz == core_mhz
            assert a.time_s == time_s
            assert a.energy_j == energy_j
            assert a.timing == timing
        assert serial.time_counter_s == batched.time_counter_s
        assert serial.energy_counter_j == batched.energy_counter_j
        assert serial.launch_count == batched.launch_count
        assert serial.throttle_count == batched.throttle_count

    def test_matches_serial_at_pinned_clock(self, device_name, power_cap):
        serial = create_device(device_name)
        batched = create_device(device_name)
        freq = float(serial.supported_frequencies()[2])
        serial.set_core_frequency(freq)
        batched.set_core_frequency(freq)
        if power_cap is not None:
            serial.set_power_cap(power_cap)
            batched.set_power_cap(power_cap)
        launches = _random_launches(np.random.default_rng(4), 10)
        ref = serial.launch_many(launches)
        got = launch_batched(batched, launches)
        for a, b in zip(ref, got):
            assert (a.core_mhz, a.time_s, a.energy_j) == b[1:4]
        assert serial.time_counter_s == batched.time_counter_s
        assert serial.energy_counter_j == batched.energy_counter_j


class TestLaunchBatchMisc:
    def test_empty_batch_is_noop(self, v100):
        before = (v100.time_counter_s, v100.energy_counter_j, v100.launch_count)
        assert launch_batched(v100, []) == []
        assert (v100.time_counter_s, v100.energy_counter_j, v100.launch_count) == before

    def test_closed_device_rejected(self):
        gpu = create_device("v100")
        launch = KernelLaunch(KernelSpec("k", float_add=10.0), threads=64)
        gpu.close()
        with pytest.raises(DeviceError):
            launch_batched(gpu, [launch])


class TestFastForward:
    def test_sets_absolute_counters(self, v100):
        launch = KernelLaunch(KernelSpec("k", float_add=10.0), threads=64)
        v100.launch(launch)
        v100.fast_forward(
            time_counter_s=v100.time_counter_s + 1.5,
            energy_counter_j=v100.energy_counter_j + 2.5,
            launches=3,
            throttles=1,
        )
        assert v100.launch_count == 4
        assert v100.throttle_count == 1

    def test_refuses_rewind(self, v100):
        launch = KernelLaunch(KernelSpec("k", float_add=10.0), threads=64)
        v100.launch(launch)
        with pytest.raises(DeviceError):
            v100.fast_forward(time_counter_s=0.0, energy_counter_j=v100.energy_counter_j)
        with pytest.raises(DeviceError):
            v100.fast_forward(time_counter_s=v100.time_counter_s, energy_counter_j=-1.0)
