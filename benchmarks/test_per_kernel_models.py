"""Extension bench: the paper's §7 per-kernel tuning vision, end to end.

Compares four execution strategies for a 10-step Cronos run (160x64x64)
under a 5% slowdown budget:

1. the default clock;
2. the best single whole-app clock (oracle search);
3. a per-kernel plan from the simulator's analytic models (oracle);
4. a per-kernel plan from *measurement-trained per-kernel domain models*
   — what a real SYnergy deployment would use.

Assertions pin the §7 narrative: per-kernel beats whole-app, and the
model-driven plan recovers most of the oracle plan's savings.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.cronos.gpu_costs import step_launches
from repro.cronos.grid import Grid3D
from repro.hw import create_device
from repro.ml import RandomForestRegressor
from repro.modeling import PerKernelModelSuite
from repro.synergy import Platform
from repro.synergy.tuning import (
    PerKernelDVFS,
    TuningMetric,
    plan_per_kernel_frequencies,
)
from repro.utils.tables import AsciiTable

GRID = Grid3D(160, 64, 64)
BUDGET = 0.05
FREQS = [450.0, 600.0, 750.0, 900.0, 1050.0, 1175.0, 1282.0, 1450.0, 1597.0]


def run_plan(launches, plan):
    gpu = create_device("v100")
    controller = PerKernelDVFS(gpu, plan)
    controller.launch_many(launches)
    return gpu.time_counter_s, gpu.energy_counter_j


@pytest.mark.benchmark(group="per-kernel")
def test_per_kernel_model_tuning(benchmark):
    launches = step_launches(GRID) * 10

    def run():
        # 1. default
        gpu = create_device("v100")
        gpu.launch_many(launches)
        default = (gpu.time_counter_s, gpu.energy_counter_j)

        # 2. best single clock (oracle)
        best_single = None
        for f in FREQS:
            gpu = create_device("v100")
            gpu.set_core_frequency(f)
            gpu.launch_many(launches)
            if default[0] / gpu.time_counter_s >= 1.0 - BUDGET:
                if best_single is None or gpu.energy_counter_j < best_single[2]:
                    best_single = (f, gpu.time_counter_s, gpu.energy_counter_j)

        # 3. per-kernel oracle plan
        gpu = create_device("v100")
        oracle_plan = plan_per_kernel_frequencies(
            launches, gpu, TuningMetric.MIN_ENERGY, max_speedup_loss=BUDGET
        )
        oracle = run_plan(launches, oracle_plan)

        # 4. per-kernel model plan (measurement-trained)
        device = Platform.default(seed=404).get_device("v100")
        suite = PerKernelModelSuite(
            regressor_factory=lambda: RandomForestRegressor(n_estimators=15, random_state=9)
        ).characterize_and_fit(
            device,
            step_launches(GRID),
            freqs_mhz=FREQS,
            size_scales=(0.25, 1.0, 4.0),
            repetitions=3,
            kernel_repeats=25,
        )
        model_plan = suite.predict_plan(launches, FREQS, max_speedup_loss=BUDGET)
        model = run_plan(launches, model_plan)
        return default, best_single, oracle, model

    default, best_single, oracle, model = benchmark.pedantic(run, rounds=1, iterations=1)

    table = AsciiTable(
        ["strategy", "time (ms)", "energy (J)", "saving vs default"],
        title=f"Cronos {GRID.label()} per-kernel tuning ({BUDGET:.0%} budget)",
    )
    rows = [
        ("default clock", default[0], default[1]),
        (f"best single clock ({best_single[0]:.0f} MHz)", best_single[1], best_single[2]),
        ("per-kernel plan (oracle)", oracle[0], oracle[1]),
        ("per-kernel plan (domain models)", model[0], model[1]),
    ]
    for name, t, e in rows:
        table.add_row([name, t * 1e3, e, f"{1 - e / default[1]:.1%}"])
    write_artifact("per_kernel_tuning.txt", table.render())

    # per-kernel oracle beats the best single clock
    assert oracle[1] <= best_single[2] * 1.01
    # the model-driven plan recovers >= 80% of the oracle plan's savings
    oracle_saving = 1 - oracle[1] / default[1]
    model_saving = 1 - model[1] / default[1]
    assert model_saving >= 0.8 * oracle_saving
    # and honours the slowdown budget (with sensor/plan tolerance)
    assert model[0] <= default[0] * (1 + BUDGET + 0.05)
