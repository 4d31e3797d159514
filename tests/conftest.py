"""Shared fixtures.

Device fixtures are function-scoped (devices carry counters and pinned
clocks); campaign fixtures are session-scoped because characterization
sweeps are the expensive part of the suite and are read-only for every
consumer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hw import create_device
from repro.hw.perf import KernelTiming
from repro.synergy import Platform
from repro.synergy.replay import ReplayPlan


def timing_at(bt, i, j):
    """Element ``(i, j)`` of a ``BatchTiming`` as the scalar path's ``KernelTiming``."""
    return KernelTiming(
        time_s=float(bt.time_s[i, j]),
        exec_s=float(bt.exec_s[i, j]),
        overhead_s=bt.overhead_s,
        t_comp_s=float(bt.t_comp_s[i, j]),
        t_bw_s=float(bt.t_bw_s[i]),
        t_lat_s=float(bt.t_lat_s[i]),
        u_comp=float(bt.u_comp[i, j]),
        u_mem=float(bt.u_mem[i, j]),
        width_util=float(bt.width_util[i]),
        occupancy=float(bt.occupancy[i]),
        regime=str(bt.regime[i, j]),
    )


def launch_batched(gpu, launches):
    """Run ``launches`` on ``gpu`` through the replay path's batched evaluator.

    ``ReplayPlan.point_values`` gives the per-launch values and the
    throttle count, an ``evaluate_batch`` pass the clocks and timings,
    and the counters advance as ``replay_measure`` advances them: to one
    cumulative sum seeded with the current counters. Returns
    ``(kernel_name, core_mhz, time_s, energy_j, timing)`` per launch, the
    fields of a ``launch_many`` result.
    """
    plan = ReplayPlan(gpu, launches)
    time_s, energy_j, throttled = plan.point_values()
    point = gpu.evaluate_batch(plan.batch, {})
    marks = np.cumsum([[gpu.time_counter_s, *time_s], [gpu.energy_counter_j, *energy_j]], axis=1)
    gpu.fast_forward(
        time_counter_s=marks[0, -1],
        energy_counter_j=marks[1, -1],
        launches=len(time_s),
        throttles=throttled,
    )
    results = []
    for u, t, e in zip(plan.batch.inverse, time_s, energy_j):
        column = point.columns[u]
        results.append(
            (
                plan.batch.unique[u].spec.name,
                point.core_mhz[u],
                float(t),
                float(e),
                timing_at(column.timing, u, column.index),
            )
        )
    return results


@pytest.fixture
def v100():
    """A fresh simulated V100."""
    return create_device("v100")


@pytest.fixture
def mi100():
    """A fresh simulated MI100."""
    return create_device("mi100")


@pytest.fixture
def v100_dev():
    """A V100 SYnergy handle with deterministic sensors."""
    return Platform.default(seed=123).get_device("v100")


@pytest.fixture
def mi100_dev():
    """An MI100 SYnergy handle with deterministic sensors."""
    return Platform.default(seed=123).get_device("mi100")


@pytest.fixture
def ideal_v100_dev():
    """A V100 handle with noiseless sensors (separates model from noise)."""
    return Platform.default(seed=123, ideal_sensors=True).get_device("v100")


@pytest.fixture(scope="session")
def small_freqs():
    """A 7-point frequency ladder spanning the V100 range."""
    return [135.0, 600.0, 900.0, 1100.0, 1282.0, 1450.0, 1597.0]


@pytest.fixture(scope="session")
def cronos_campaign_small():
    """A tiny Cronos campaign shared by modeling/evaluation tests."""
    from repro.experiments import build_cronos_campaign

    device = Platform.default(seed=7).get_device("v100")
    return build_cronos_campaign(
        device,
        grids=((10, 4, 4), (20, 8, 8), (40, 16, 16)),
        freq_count=8,
        n_steps=5,
        repetitions=2,
    )


@pytest.fixture(scope="session")
def ligen_campaign_small():
    """A tiny LiGen campaign shared by modeling/evaluation tests."""
    from repro.experiments import build_ligen_campaign

    device = Platform.default(seed=7).get_device("v100")
    return build_ligen_campaign(
        device,
        ligand_counts=(2, 256, 4096),
        atom_counts=(31, 89),
        fragment_counts=(4, 20),
        freq_count=8,
        repetitions=2,
    )
