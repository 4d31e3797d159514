"""Unit tests for the LRU advice cache and cache-key machinery.

Regression anchors for this layer's bug sweep: signed-zero features
used to split one logical cache entry into two, and ``hit_ratio`` on a
fresh cache divided by zero in spirit (NaN in reports).
"""

import sys
import threading

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import Objective, PredictionCache, quantize_features
from repro.serving.cache import AdviceKeyMaker

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

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param("3", id="str"),
            pytest.param(b"3", id="bytes"),
            pytest.param(3.0, id="scalar"),
            pytest.param(None, id="none"),
            pytest.param(np.array([[3.0]]), id="2d-array"),
            pytest.param([[3.0]], id="nested-list"),
            pytest.param([None], id="none-element"),
            pytest.param(["x"], id="str-element"),
            pytest.param([b"3"], id="bytes-element"),
            pytest.param([1 + 2j], id="complex-element"),
            pytest.param([10**400], id="huge-int-element"),
            pytest.param([True], id="bool-element"),
            pytest.param([np.True_], id="numpy-bool-element"),
        ],
    )
    def test_malformed_requests_are_serving_errors(self, bad):
        with pytest.raises(ServingError):
            quantize_features(bad)

    def test_real_number_types_are_accepted(self):
        got = quantize_features([3, np.float32(0.5), np.int64(7), np.float64(2.25)])
        assert got == (3.0, 0.5, 7.0, 2.25)
        assert all(type(v) is float for v in got)


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


class TestCapacity:
    def test_total_capacity_preserved(self):
        cache = PredictionCache(capacity=2048)
        for i in range(5000):
            cache.put(f"key-{i}", i)
        assert len(cache) == 2048
        assert cache.evictions == 5000 - 2048

    def test_counters_count_every_lookup(self):
        cache = PredictionCache(capacity=2048)
        for i in range(64):
            cache.put(f"key-{i}", i)
        for i in range(64):
            assert cache.get(f"key-{i}") == i
        for i in range(32):
            assert cache.get(f"missing-{i}") is None
        assert cache.hits == 64
        assert cache.misses == 32

    def test_lru_exactness(self):
        cache = PredictionCache(capacity=3)
        for key in ("a", "b", "c"):
            cache.put(key, key.upper())
        cache.get("a")
        cache.put("d", "D")  # evicts b, the least recent
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.get("c") == "C"
        assert cache.get("d") == "D"


def test_threads_lose_no_update():
    # More threads than cores and a microsecond switch interval preempt
    # threads between the steps of get and put. Without the lock an
    # eviction races a refresh of the same key, and lookups go missing.
    cache = PredictionCache(capacity=48)
    n_threads, n_ops = 8, 2000
    wrong = []

    def client(offset):
        for i in range(n_ops):
            key = f"key-{(7 * i + offset) % 64}"
            advice = cache.get(key)
            if advice is None:
                cache.put(key, key.upper())
            elif advice != key.upper():
                wrong.append((key, advice))

    threads = [threading.Thread(target=client, args=(n,)) for n in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert cache.hits + cache.misses == n_threads * n_ops
    assert len(cache) == 48
