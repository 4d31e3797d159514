"""Tests for per-kernel domain-specific models (paper §7)."""

import pytest

from repro.cronos.gpu_costs import step_launches
from repro.cronos.grid import Grid3D
from repro.errors import ConfigurationError, ModelNotFittedError
from repro.hw import create_device
from repro.ml import RandomForestRegressor
from repro.modeling import PerKernelModelSuite
from repro.synergy import Platform
from repro.synergy.tuning import PerKernelDVFS, TuningMetric


def forest():
    return RandomForestRegressor(n_estimators=8, random_state=5)


FREQS = [450.0, 700.0, 900.0, 1100.0, 1282.0, 1450.0, 1597.0]


@pytest.fixture(scope="module")
def suite():
    device = Platform.default(seed=77, ideal_sensors=True).get_device("v100")
    launches = step_launches(Grid3D(80, 32, 32))
    return PerKernelModelSuite(regressor_factory=forest).characterize_and_fit(
        device,
        launches,
        freqs_mhz=FREQS,
        size_scales=(0.25, 1.0, 4.0),
        repetitions=1,
        kernel_repeats=25,
    )


class TestTraining:
    def test_one_model_per_kernel(self, suite):
        assert suite.kernel_names == [
            "cronos_boundary",
            "cronos_compute_changes",
            "cronos_integrate",
            "cronos_reduce_cfl",
        ]

    def test_unknown_kernel_raises(self, suite):
        with pytest.raises(ModelNotFittedError):
            suite.model_for("unknown_kernel")

    def test_empty_launches_rejected(self):
        device = Platform.default(seed=1).get_device("v100")
        with pytest.raises(ConfigurationError):
            PerKernelModelSuite().characterize_and_fit(device, [], FREQS)

    def test_model_predictions_sane(self, suite):
        model = suite.model_for("cronos_compute_changes")
        pred = model.predict_tradeoff((80 * 32 * 32, 1.0), FREQS)
        # baseline point ~ (1, 1)
        idx = FREQS.index(1282.0)
        assert pred.speedups[idx] == pytest.approx(1.0, abs=0.05)
        assert pred.normalized_energies[idx] == pytest.approx(1.0, abs=0.05)


class TestPlanPrediction:
    def test_plan_structure(self, suite):
        launches = step_launches(Grid3D(80, 32, 32))
        plan = suite.predict_plan(launches, FREQS, max_speedup_loss=0.05)
        assert set(plan) == set(suite.kernel_names)
        for decision in plan.values():
            assert decision.freq_mhz in FREQS
            assert decision.predicted_speedup >= 0.95 - 1e-9

    def test_memory_bound_kernels_downclocked(self, suite):
        launches = step_launches(Grid3D(80, 32, 32))
        plan = suite.predict_plan(launches, FREQS, max_speedup_loss=0.05)
        assert plan["cronos_compute_changes"].freq_mhz < 1282.0

    def test_model_plan_actually_saves_energy(self, suite):
        """Executing the model-predicted plan must save real energy vs the
        default clock at bounded slowdown — the paper's §7 vision closed
        end to end with measurements only."""
        launches = step_launches(Grid3D(80, 32, 32)) * 10

        gpu_default = create_device("v100")
        gpu_default.launch_many(launches)

        gpu_tuned = create_device("v100")
        plan = suite.predict_plan(launches, FREQS, max_speedup_loss=0.05)
        controller = PerKernelDVFS(gpu_tuned, plan)
        controller.launch_many(launches)

        assert controller.energy_counter_j < 0.92 * gpu_default.energy_counter_j
        assert controller.time_counter_s < 1.12 * gpu_default.time_counter_s

    def test_plan_adapts_to_input_size(self, suite):
        """Small grids are latency-bound: their predicted plans may park
        kernels lower without losing speedup."""
        small_plan = suite.predict_plan(
            step_launches(Grid3D(20, 8, 8)), FREQS, max_speedup_loss=0.05
        )
        large_plan = suite.predict_plan(
            step_launches(Grid3D(160, 64, 64)), FREQS, max_speedup_loss=0.05
        )
        # both plans valid; the stencil decision may differ across sizes
        assert set(small_plan) == set(large_plan)

    def test_metric_passthrough(self, suite):
        launches = step_launches(Grid3D(80, 32, 32))
        edp = suite.predict_plan(launches, FREQS, metric=TuningMetric.MIN_EDP)
        assert set(edp) == set(suite.kernel_names)
