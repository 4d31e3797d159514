"""Unit tests for the sharded advice cache and cache-key machinery.

Regression anchors for this layer's bug sweep: signed-zero features
used to split one logical cache entry into two, ``hit_ratio`` on a
fresh cache divided by zero in spirit (NaN in reports), and sharding
must never change observable LRU semantics for small caches.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import Objective, PredictionCache, quantize_features
from repro.serving.cache import _MIN_SHARD_CAPACITY, AdviceKeyMaker

FREQS = (400.0, 800.0, 1200.0)


class TestQuantization:
    def test_negative_zero_canonicalized(self):
        assert quantize_features([-0.0]) == (0.0,)
        assert str(quantize_features([-0.0])[0]) == "0.0"  # not "-0.0"

    def test_underflow_to_zero_canonicalized(self):
        # Rounds to -0.0 before canonicalization — must still come out +0.0.
        (q,) = quantize_features([-1e-12])
        assert q == 0.0 and str(q) == "0.0"

    def test_signed_zero_yields_one_cache_key(self):
        maker = AdviceKeyMaker("m", FREQS)
        k_pos = maker.key(quantize_features([0.0, 1.5]), Objective.tradeoff())
        k_neg = maker.key(quantize_features([-0.0, 1.5]), Objective.tradeoff())
        assert k_pos == k_neg

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ServingError, match="finite"):
            quantize_features([1.0, bad])

    def test_quantum_rounding_still_applies(self):
        a = quantize_features([1.0 + 1e-13])
        b = quantize_features([1.0])
        assert a == b


class TestAdviceKeyMaker:
    def test_stable_for_same_request(self):
        maker = AdviceKeyMaker("digest", FREQS)
        obj = Objective.tradeoff()
        feats = quantize_features([3.0])
        assert maker.key(feats, obj) == maker.key(feats, obj)

    def test_separates_models_grids_features_objectives(self):
        obj = Objective.tradeoff()
        feats = quantize_features([3.0])
        base = AdviceKeyMaker("digest", FREQS).key(feats, obj)
        assert AdviceKeyMaker("other", FREQS).key(feats, obj) != base
        assert AdviceKeyMaker("digest", FREQS[:-1]).key(feats, obj) != base
        assert AdviceKeyMaker("digest", FREQS).key((4.0,), obj) != base
        assert (
            AdviceKeyMaker("digest", FREQS).key(feats, Objective.max_speedup_power(1e9))
            != base
        )


class TestHitRatio:
    def test_zero_before_any_traffic(self):
        cache = PredictionCache(capacity=8)
        assert cache.hit_ratio() == 0.0
        assert cache.as_dict()["hit_ratio"] == 0.0

    def test_counts_after_traffic(self):
        cache = PredictionCache(capacity=8)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.get("absent") is None
        assert cache.hit_ratio() == 0.5

    def test_disabled_cache_ratio_stays_finite(self):
        cache = PredictionCache(capacity=0)
        cache.put("k", "v")
        assert cache.get("k") is None
        assert cache.hit_ratio() == 0.0


class TestSharding:
    def test_small_capacity_collapses_to_one_shard(self):
        assert PredictionCache(capacity=2, shards=8).shards == 1
        assert PredictionCache(capacity=_MIN_SHARD_CAPACITY, shards=8).shards == 1

    def test_large_capacity_uses_requested_shards(self):
        assert PredictionCache(capacity=2048, shards=8).shards == 8

    def test_intermediate_capacity_clamped(self):
        assert PredictionCache(capacity=4 * _MIN_SHARD_CAPACITY, shards=8).shards == 4

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ServingError, match="shards"):
            PredictionCache(capacity=8, shards=0)

    def test_total_capacity_preserved_across_shards(self):
        cache = PredictionCache(capacity=2048, shards=8)
        for i in range(5000):
            cache.put(f"key-{i}", i)
        assert len(cache) == 2048
        assert sum(cache.shard_sizes()) == 2048
        assert cache.evictions == 5000 - 2048

    def test_keys_spread_over_shards(self):
        cache = PredictionCache(capacity=2048, shards=8)
        for i in range(500):
            cache.put(f"key-{i}", i)
        occupied = [s for s in cache.shard_sizes() if s > 0]
        assert len(occupied) == 8  # CRC32 spreads this many keys everywhere

    def test_counters_aggregate_across_shards(self):
        cache = PredictionCache(capacity=2048, shards=8)
        for i in range(64):
            cache.put(f"key-{i}", i)
        for i in range(64):
            assert cache.get(f"key-{i}") == i
        for i in range(32):
            assert cache.get(f"missing-{i}") is None
        assert cache.hits == 64
        assert cache.misses == 32
        assert cache.as_dict()["shards"] == 8

    def test_shard_placement_is_deterministic(self):
        a = PredictionCache(capacity=2048, shards=8)
        b = PredictionCache(capacity=2048, shards=8)
        for i in range(100):
            a.put(f"key-{i}", i)
            b.put(f"key-{i}", i)
        assert a.shard_sizes() == b.shard_sizes()

    def test_single_shard_lru_exactness_preserved(self):
        # The pre-shard behaviour contract: global LRU order for small caches.
        cache = PredictionCache(capacity=3, shards=8)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        cache.get("a")
        cache.put("d", "D")  # evicts b, the least recent
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"
        assert cache.get("d") == "D"
