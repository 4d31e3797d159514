"""The served path against the per-tree reference walk, on the paper's forest.

A LiGen domain model with 30-tree forests (the paper's Random Forest
default, so the reference walk costs what the paper's model costs) is
registered and served from one seeded request stream two ways:

- **naive**: one scalar ``predict_tradeoff`` and objective per request,
  serial and uncached, through the per-tree reference walk
  (:func:`repro.ml.forest.reference_mode`);
- **served**: :class:`repro.serving.AdvisorService` with its advice
  cache, micro-batching and SoA forest, driven by worker threads.

A second, all-distinct stream runs with caching off, so every request
misses: the reference walk serially against the SoA path serially and
concurrently. Every advice stream must equal the reference bitwise,
and the floors below must hold.
"""

import time

import numpy as np
import pytest

from repro.experiments.datasets import build_ligen_campaign
from repro.io import save_domain_model
from repro.ligen.app import LIGEN_FEATURE_NAMES
from repro.ml import RandomForestRegressor
from repro.ml.forest import reference_mode
from repro.modeling import DomainSpecificModel
from repro.serving import (
    AdvisorService,
    ModelRegistry,
    Objective,
    run_load,
    synthetic_requests,
)
from repro.synergy import Platform

MODEL_NAME = "ligen-smoke"
N_ESTIMATORS = 30
N_REQUESTS = 400
POOL_SIZE = 8
WORKERS = 4
FREQ_POINTS = 25
STREAM_SEED = 0
COLD_REQUESTS = 160

MIN_SPEEDUP = 5.0
COLD_MIN_SPEEDUP = 10.0
MAX_P99_S = 0.25

FREQS = np.linspace(135.0, 1597.0, FREQ_POINTS)
BASE_FEATURES = (10000.0, 20.0, 89.0)
OBJECTIVES = [
    Objective.tradeoff(),
    Objective.min_energy_deadline(100.0),
    Objective.max_speedup_power(500.0),
]


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


@pytest.fixture(scope="module")
def ligen_registry(tmp_path_factory):
    device = Platform.default(seed=7).get_device("v100")
    campaign = build_ligen_campaign(
        device,
        freq_count=6,
        repetitions=2,
        ligand_counts=(2, 256, 10000),
        atom_counts=(31, 89),
        fragment_counts=(4, 20),
    )
    model = DomainSpecificModel(
        LIGEN_FEATURE_NAMES,
        regressor_factory=lambda: RandomForestRegressor(
            n_estimators=N_ESTIMATORS, random_state=42
        ),
    ).fit(campaign.dataset)
    root = tmp_path_factory.mktemp("serving-floors")
    model_path = root / "model.npz"
    save_domain_model(model, model_path)
    registry = ModelRegistry(root / "registry")
    registry.register(
        model_path,
        MODEL_NAME,
        app="ligen",
        device_signature=device.gpu.spec.signature(),
        train_fingerprint=f"smoke-campaign-{len(campaign.dataset)}-samples",
    )
    return registry


@pytest.fixture(scope="module")
def hot(ligen_registry):
    """Naive per-request replay and the served path on one repeating stream."""
    requests = synthetic_requests(
        BASE_FEATURES, N_REQUESTS, pool_size=POOL_SIZE, objectives=OBJECTIVES,
        seed=STREAM_SEED,
    )
    model, _ = ligen_registry.resolve(MODEL_NAME)

    def naive():
        with reference_mode():
            return [
                objective.evaluate(model.predict_tradeoff(list(feats), FREQS))
                for feats, objective in requests
            ]

    naive_s, naive_advice = _timed(naive)
    service = AdvisorService.from_registry(ligen_registry, MODEL_NAME, FREQS)
    served_s, served_advice = _timed(lambda: run_load(service, requests, workers=WORKERS))
    return dict(
        naive_s=naive_s, naive_advice=naive_advice,
        served_s=served_s, served_advice=served_advice, stats=service.stats,
    )


@pytest.fixture(scope="module")
def cold(ligen_registry):
    """Caching off, all-distinct features: every request is a cache miss."""
    requests = synthetic_requests(
        BASE_FEATURES, COLD_REQUESTS, pool_size=COLD_REQUESTS, objectives=OBJECTIVES,
        seed=STREAM_SEED + 1,
    )

    def reference(service, stream):
        with reference_mode():
            return run_load(service, stream, workers=1)

    def soa_serial(service, stream):
        return run_load(service, stream, workers=1)

    def soa_concurrent(service, stream):
        return run_load(service, stream, workers=WORKERS)

    out = {}
    for path in (reference, soa_serial, soa_concurrent):
        service = AdvisorService.from_registry(
            ligen_registry, MODEL_NAME, FREQS, cache_size=0
        )
        # Model deserialization and the lazy FlatForest build are one-time
        # setup, not cache-miss cost: warm each service on its own path.
        path(service, requests[:3])
        out[path.__name__] = _timed(lambda: path(service, requests))
    return out


def test_served_advice_equals_naive_bitwise(hot):
    assert hot["served_advice"] == hot["naive_advice"]


def test_served_is_5x_naive(hot):
    speedup = hot["naive_s"] / hot["served_s"]
    assert speedup >= MIN_SPEEDUP, (
        f"served {speedup:.1f}x naive, floor {MIN_SPEEDUP}x "
        f"(naive {hot['naive_s']:.3f}s, served {hot['served_s']:.3f}s)"
    )


def test_cache_hits_and_p99_is_bounded(hot):
    assert hot["stats"].cache_hit_ratio() > 0.0
    p99 = hot["stats"].as_dict()["latency"]["p99_s"]
    assert p99 <= MAX_P99_S, f"p99 latency {p99:.4f}s above {MAX_P99_S}s"


def test_cold_soa_advice_equals_reference_bitwise(cold):
    _, reference = cold["reference"]
    assert cold["soa_serial"][1] == reference
    assert cold["soa_concurrent"][1] == reference


def test_cold_soa_serial_is_10x_reference(cold):
    reference_s, _ = cold["reference"]
    soa_s, _ = cold["soa_serial"]
    speedup = reference_s / soa_s
    assert speedup >= COLD_MIN_SPEEDUP, (
        f"cold SoA serial {speedup:.1f}x the reference walk, floor "
        f"{COLD_MIN_SPEEDUP}x (reference {reference_s:.3f}s, SoA {soa_s:.3f}s)"
    )
