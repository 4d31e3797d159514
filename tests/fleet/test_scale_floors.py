"""The vectorized fleet engine on the quick LiGen model, at 16 and 1,024 GPUs.

- **identity**: a 16-GPU fleet with injected GPU failures simulated by
  both engines; every trajectory array must be bitwise identical, and
  failures must fire so the fault path is exercised;
- **scale**: a 1,024-GPU fleet, timed vectorized against the per-object
  reference loop; the vectorized engine must be at least 10x faster;
- **savings**: the same 1,024-GPU fleet advised against pinned at the top
  clock; advice must save energy at equal SLA attainment.
"""

import time

import pytest

from repro.fleet import (
    assert_trajectories_equal,
    compare_to_static,
    diff_trajectories,
    simulate_fleet,
)
from repro.fleet.engine import _quick_ligen_model
from repro.specs.fleet import FleetJobType, FleetSpec

MIN_SPEEDUP = 10.0
SCALE_GPUS = 1024
MODEL_SEED = 42

#: LiGen workload classes (features: ligands, fragments, atoms). Deadlines
#: are generous enough that the advisor can downclock while both
#: policies still meet every deadline.
JOB_TYPES = (
    FleetJobType(name="ligen-large", features=(10000.0, 20.0, 89.0), deadline_s=25.0),
    FleetJobType(
        name="ligen-medium", features=(256.0, 20.0, 89.0), deadline_s=8.0, weight=2.0
    ),
    FleetJobType(name="ligen-small", features=(2.0, 4.0, 31.0), deadline_s=5.0),
)

IDENTITY_SPEC = FleetSpec(
    name="fleet-identity-smoke",
    gpus=16,
    ticks=60,
    job_types=JOB_TYPES,
    arrival_rate_per_tick=3.0,
    arrival_horizon_ticks=45,
    tick_s=0.5,
    seed=7,
    gpu_failure_prob=0.01,
    repair_ticks=6,
)

SCALE_SPEC = FleetSpec(
    name="fleet-scale-smoke",
    gpus=SCALE_GPUS,
    ticks=120,
    job_types=JOB_TYPES,
    arrival_rate_per_tick=16.0,
    arrival_horizon_ticks=90,
    tick_s=1.0,
    seed=11,
    gpu_failure_prob=0.0005,
    repair_ticks=10,
)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


@pytest.fixture(scope="module")
def model():
    return _quick_ligen_model(MODEL_SEED)


@pytest.fixture(scope="module")
def scale(model):
    # Warm the advisor once so neither timing pays first-call setup
    # (tree flattening, pool assembly) for the other.
    simulate_fleet(SCALE_SPEC, model, mode="vectorized")
    vec_s, vec = _timed(simulate_fleet, SCALE_SPEC, model, mode="vectorized")
    ref_s, ref = _timed(simulate_fleet, SCALE_SPEC, model, mode="reference")
    return vec_s, vec, ref_s, ref


def test_vectorized_equals_reference_on_a_faulted_fleet(model):
    vec = simulate_fleet(IDENTITY_SPEC, model, mode="vectorized")
    ref = simulate_fleet(IDENTITY_SPEC, model, mode="reference")
    assert diff_trajectories(vec, ref) == []
    assert vec.summary()["gpu_failures"] > 0


def test_vectorized_is_10x_reference_at_1024_gpus(scale):
    vec_s, vec, ref_s, ref = scale
    assert_trajectories_equal(vec, ref)
    speedup = ref_s / vec_s
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized fleet {speedup:.1f}x the reference loop at {SCALE_GPUS} "
        f"GPUs, floor {MIN_SPEEDUP}x (vectorized {vec_s:.3f}s, reference {ref_s:.3f}s)"
    )


def test_advice_saves_energy_at_equal_sla(model, scale):
    _, vec, _, _ = scale
    outcome = compare_to_static(SCALE_SPEC, model, advised_result=vec)
    assert outcome["sla_delta"] == 0.0
    assert outcome["energy_saved_j"] > 0.0
