"""Property-based tests for the serving layer (hypothesis).

The central property is the determinism contract: batched inference —
at the forest level (one ``predict`` over stacked requests) and the
domain-model level (``predict_tradeoff_batch``) — is *bitwise* equal to
scalar inference for arbitrary inputs and batch shapes. Everything the
advisor service guarantees (concurrent == serial) reduces to this.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestRegressor
from repro.modeling.dataset import EnergyDataset, EnergySample
from repro.modeling.domain import DomainSpecificModel
from repro.serving import LatencyReservoir, PredictionCache, quantize_features

# One fitted substrate for the whole module (read-only afterwards).
_RNG = np.random.default_rng(7)
_X = _RNG.uniform(0.0, 100.0, size=(60, 3))
_Y = _X @ np.array([0.5, -1.2, 2.0]) + _RNG.normal(0, 0.5, 60)
_FOREST = RandomForestRegressor(n_estimators=8, random_state=0).fit(_X, _Y)


def _domain_model():
    ds = EnergyDataset(feature_names=("size",))
    for size in (1.0, 3.0, 9.0, 27.0):
        for f in (400.0, 800.0, 1282.0, 1500.0):
            ds.add(
                EnergySample(
                    features=(size,),
                    freq_mhz=f,
                    time_s=size * 1000.0 / f,
                    energy_j=size * (20.0 + f / 100.0),
                )
            )
    return DomainSpecificModel(
        ("size",),
        regressor_factory=lambda: RandomForestRegressor(n_estimators=6, random_state=1),
        baseline_freq_mhz=1282.0,
    ).fit(ds)


_MODEL = _domain_model()
_FREQS = np.linspace(400.0, 1500.0, 9)


@st.composite
def chunk_lists(draw):
    n_chunks = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    sizes = [draw(st.integers(min_value=1, max_value=7)) for _ in range(n_chunks)]
    return [rng.uniform(0.0, 100.0, size=(n, 3)) for n in sizes]


@given(chunk_lists())
@settings(max_examples=30, deadline=None)
def test_forest_chunked_predict_bitwise_equals_scalar(chunks):
    """predict over stacked chunks == per-chunk predict, bit for bit, any batch shape."""
    bounds = np.cumsum([len(c) for c in chunks])[:-1]
    batched = np.split(_FOREST.predict(np.vstack(chunks)), bounds)
    assert len(batched) == len(chunks)
    for chunk, got in zip(chunks, batched):
        assert np.array_equal(_FOREST.predict(chunk), got)


@given(
    st.lists(
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=30, deadline=None)
def test_domain_batch_predict_bitwise_equals_scalar(sizes):
    """predict_tradeoff_batch == a predict_tradeoff loop, bit for bit."""
    batch = [[s] for s in sizes]
    batched = _MODEL.predict_tradeoff_batch(batch, _FREQS)
    for feats, got in zip(batch, batched):
        want = _MODEL.predict_tradeoff(feats, _FREQS)
        assert np.array_equal(want.times_s, got.times_s)
        assert np.array_equal(want.energies_j, got.energies_j)
        assert np.array_equal(want.speedups, got.speedups)
        assert np.array_equal(want.normalized_energies, got.normalized_energies)


@given(
    st.lists(st.tuples(st.text(min_size=1, max_size=6), st.integers()), min_size=1),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_lru_cache_never_exceeds_capacity(items, capacity):
    cache = PredictionCache(capacity)
    for key, value in items:
        cache.put(key, value)
        assert len(cache) <= capacity
        assert cache.get(key) == value  # most-recent insert always resident


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=40, deadline=None)
def test_reservoir_percentiles_bounded_by_observations(latencies):
    reservoir = LatencyReservoir(capacity=32, seed=0)
    for value in latencies:
        reservoir.observe(value)
    snap = reservoir.snapshot()
    lo, hi = min(latencies), max(latencies)
    for key in ("p50_s", "p95_s", "p99_s", "max_s"):
        assert lo <= snap[key] <= hi
    assert reservoir.seen == len(latencies)


@given(
    st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=40, deadline=None)
def test_feature_quantization_is_idempotent(features):
    once = quantize_features(features)
    assert quantize_features(once) == once
