"""Unit tests for frequency tuning and per-kernel DVFS."""

import numpy as np
import pytest

from repro.cronos.gpu_costs import step_launches
from repro.cronos.grid import Grid3D
from repro.errors import ConfigurationError
from repro.hw import create_device
from repro.synergy.tuning import (
    PerKernelDVFS,
    TuningMetric,
    plan_per_kernel_frequencies,
    select_frequency,
)

FREQS = [600.0, 900.0, 1100.0, 1282.0, 1597.0]
SPEEDUPS = [0.55, 0.78, 0.90, 1.00, 1.20]
ENERGIES = [0.95, 0.85, 0.90, 1.00, 1.45]


class TestSelectFrequency:
    def test_min_energy_respects_slowdown_budget(self):
        d = select_frequency(FREQS, SPEEDUPS, ENERGIES, TuningMetric.MIN_ENERGY, 0.10)
        assert d.freq_mhz == 1100.0  # 900 saves more but violates the budget
        assert d.predicted_normalized_energy == pytest.approx(0.90)

    def test_min_energy_wider_budget(self):
        d = select_frequency(FREQS, SPEEDUPS, ENERGIES, TuningMetric.MIN_ENERGY, 0.25)
        assert d.freq_mhz == 900.0

    def test_min_energy_infeasible_budget(self):
        with pytest.raises(ConfigurationError):
            select_frequency(FREQS, [0.5] * 5, ENERGIES, TuningMetric.MIN_ENERGY, 0.1)

    def test_min_edp(self):
        d = select_frequency(FREQS, SPEEDUPS, ENERGIES, TuningMetric.MIN_EDP)
        edp = np.array(ENERGIES) / np.array(SPEEDUPS)
        assert d.freq_mhz == FREQS[int(np.argmin(edp))]
        assert d.predicted_edp == pytest.approx(edp.min())

    def test_min_ed2p_prefers_faster_than_edp(self):
        d_edp = select_frequency(FREQS, SPEEDUPS, ENERGIES, TuningMetric.MIN_EDP)
        d_ed2p = select_frequency(FREQS, SPEEDUPS, ENERGIES, TuningMetric.MIN_ED2P)
        assert d_ed2p.predicted_speedup >= d_edp.predicted_speedup

    def test_max_speedup_unbounded(self):
        d = select_frequency(FREQS, SPEEDUPS, ENERGIES, TuningMetric.MAX_SPEEDUP)
        assert d.freq_mhz == 1597.0

    def test_max_speedup_with_energy_budget(self):
        d = select_frequency(
            FREQS, SPEEDUPS, ENERGIES, TuningMetric.MAX_SPEEDUP,
            max_normalized_energy=1.0,
        )
        assert d.freq_mhz == 1282.0

    def test_max_speedup_infeasible_budget(self):
        with pytest.raises(ConfigurationError):
            select_frequency(
                FREQS, SPEEDUPS, ENERGIES, TuningMetric.MAX_SPEEDUP,
                max_normalized_energy=0.1,
            )

    def test_energy_target_picks_fastest_within_target(self):
        """SYnergy's energy-target metric (paper §7): fastest config whose
        predicted energy meets the target."""
        d = select_frequency(
            FREQS, SPEEDUPS, ENERGIES, TuningMetric.ENERGY_TARGET, energy_target=0.92
        )
        assert d.freq_mhz == 1100.0  # 0.90 energy beats the 0.92 target; fastest such

    def test_energy_target_requires_target(self):
        with pytest.raises(ConfigurationError):
            select_frequency(FREQS, SPEEDUPS, ENERGIES, TuningMetric.ENERGY_TARGET)

    def test_energy_target_unreachable(self):
        with pytest.raises(ConfigurationError):
            select_frequency(
                FREQS, SPEEDUPS, ENERGIES, TuningMetric.ENERGY_TARGET, energy_target=0.5
            )

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            select_frequency(FREQS, SPEEDUPS[:3], ENERGIES)

    def test_empty_profile(self):
        with pytest.raises(ConfigurationError):
            select_frequency([], [], [])


class TestPlanPerKernel:
    @pytest.fixture
    def plan(self, v100):
        launches = step_launches(Grid3D(160, 64, 64))
        return plan_per_kernel_frequencies(
            launches, v100, TuningMetric.MIN_ENERGY, max_speedup_loss=0.05
        )

    def test_one_entry_per_distinct_kernel(self, plan):
        assert set(plan) == {
            "cronos_compute_changes",
            "cronos_reduce_cfl",
            "cronos_integrate",
            "cronos_boundary",
        }

    def test_memory_bound_kernels_parked_low(self, plan, v100):
        """The stencil and streaming kernels should be down-clocked below
        the default application clock."""
        default = v100.default_frequency_mhz
        assert plan["cronos_compute_changes"].freq_mhz < default
        assert plan["cronos_integrate"].freq_mhz < default

    def test_decisions_respect_budget(self, plan):
        for decision in plan.values():
            assert decision.predicted_speedup >= 0.95 - 1e-9

    def test_frequencies_snapped(self, plan, v100):
        for decision in plan.values():
            assert decision.freq_mhz in v100.spec.core_freqs


class TestPerKernelDVFS:
    def test_empty_plan_rejected(self, v100):
        with pytest.raises(ConfigurationError):
            PerKernelDVFS(v100, {})

    def test_switches_clock_per_kernel(self, v100):
        launches = step_launches(Grid3D(40, 16, 16))
        plan = plan_per_kernel_frequencies(launches, v100, max_speedup_loss=0.05)
        controller = PerKernelDVFS(v100, plan)
        results = controller.launch_many(launches)
        by_kernel = {r.kernel_name: r.core_mhz for r in results}
        for name, decision in plan.items():
            assert by_kernel[name] == pytest.approx(decision.freq_mhz)
        assert controller.switch_count >= len(set(plan)) - 1

    def test_fallback_for_unplanned_kernel(self, v100):
        from repro.kernels.ir import KernelLaunch, KernelSpec

        plan = plan_per_kernel_frequencies(
            step_launches(Grid3D(10, 4, 4)), v100, max_speedup_loss=0.05
        )
        controller = PerKernelDVFS(v100, plan)
        stray = KernelLaunch(KernelSpec("stray", float_add=100), threads=1000)
        result = controller.launch(stray)
        assert result.core_mhz == pytest.approx(controller.fallback_mhz)

    def test_per_kernel_saves_vs_whole_app_tuning(self):
        """Per-kernel DVFS must use no more energy than the best single
        whole-app frequency under the same slowdown budget — the paper's
        §7 motivation."""
        grid = Grid3D(160, 64, 64)
        launches = step_launches(grid) * 5

        # whole-app: best single frequency within 5% slowdown
        probe = create_device("v100")
        best_energy = np.inf
        base = None
        for f in probe.spec.core_freqs.subsample(24):
            gpu = create_device("v100")
            gpu.set_core_frequency(f)
            gpu.launch_many(launches)
            t, e = gpu.time_counter_s, gpu.energy_counter_j
            if base is None:
                gpu_d = create_device("v100")
                gpu_d.launch_many(launches)
                base = (gpu_d.time_counter_s, gpu_d.energy_counter_j)
            if base[0] / t >= 0.95 and e < best_energy:
                best_energy = e

        # per-kernel plan under the same budget
        gpu_pk = create_device("v100")
        plan = plan_per_kernel_frequencies(
            launches, gpu_pk, TuningMetric.MIN_ENERGY, max_speedup_loss=0.05
        )
        controller = PerKernelDVFS(gpu_pk, plan)
        controller.launch_many(launches)
        assert controller.energy_counter_j <= best_energy * 1.02

    def test_counter_passthrough(self, v100):
        plan = plan_per_kernel_frequencies(
            step_launches(Grid3D(10, 4, 4)), v100, max_speedup_loss=0.1
        )
        controller = PerKernelDVFS(v100, plan)
        controller.launch_many(step_launches(Grid3D(10, 4, 4)))
        assert controller.time_counter_s == v100.time_counter_s
        assert controller.energy_counter_j == v100.energy_counter_j
