"""Unit + concurrency tests for the AdvisorService.

The load-bearing assertions are the determinism contracts: batched
forest inference is bitwise-equal to scalar inference, and N worker
threads produce advice bitwise-equal to a serial replay of the same
request stream.
"""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.ml.forest import reference_mode
from repro.serving import (
    AdvisorService,
    Objective,
    PredictionCache,
    quantize_features,
    run_load,
    synthetic_requests,
)

from .conftest import SERVE_FREQS


@pytest.fixture
def service(fitted_model):
    return AdvisorService(fitted_model, SERVE_FREQS, model_digest="test-digest")


class TestBasics:
    def test_serial_advise(self, service):
        advice = service.advise([4.0])
        assert advice.objective == "tradeoff"
        assert advice.freq_mhz in [float(f) for f in SERVE_FREQS]
        assert service.stats.requests == 1
        assert service.stats.batches == 1
        assert service.stats.batch_size_max == 1

    def test_matches_direct_model_call(self, service, fitted_model):
        advice = service.advise([4.0], Objective.tradeoff())
        prediction = fitted_model.predict_tradeoff([4.0], SERVE_FREQS)
        assert advice == Objective.tradeoff().evaluate(prediction)

    def test_wrong_arity_rejected(self, service):
        with pytest.raises(ServingError, match="expected 1 features"):
            service.advise([1.0, 2.0])

    def test_empty_grid_rejected(self, fitted_model):
        with pytest.raises(ServingError, match="non-empty"):
            AdvisorService(fitted_model, [])

    def test_bad_max_batch_rejected(self, fitted_model):
        with pytest.raises(ServingError, match="max_batch"):
            AdvisorService(fitted_model, SERVE_FREQS, max_batch=0)


class TestCache:
    def test_repeat_request_hits(self, service):
        first = service.advise([4.0])
        second = service.advise([4.0])
        assert first == second
        assert service.stats.cache_hits == 1
        assert service.stats.evaluated == 1

    def test_distinct_objectives_do_not_collide(self, service):
        a = service.advise([4.0], Objective.tradeoff())
        b = service.advise([4.0], Objective.max_speedup_power(1e9))
        assert service.stats.cache_hits == 0
        assert a.objective != b.objective

    def test_distinct_model_digests_do_not_collide(self):
        from repro.serving.cache import AdviceKeyMaker

        feats = quantize_features([4.0])
        k1 = AdviceKeyMaker("one", SERVE_FREQS).key(feats, Objective.tradeoff())
        k2 = AdviceKeyMaker("two", SERVE_FREQS).key(feats, Objective.tradeoff())
        assert k1 != k2

    def test_cache_disabled_still_correct(self, fitted_model):
        cached = AdvisorService(fitted_model, SERVE_FREQS, model_digest="d")
        uncached = AdvisorService(
            fitted_model, SERVE_FREQS, model_digest="d", cache_size=0
        )
        assert cached.advise([4.0]) == uncached.advise([4.0])
        assert uncached.advise([4.0]) == uncached.advise([4.0])
        assert uncached.stats.cache_hits == 0
        assert uncached.stats.evaluated == 3  # every request recomputed

    def test_feature_quantization_collapses_float_noise(self, service):
        service.advise([4.0])
        service.advise([4.0 + 1e-13])
        assert service.stats.cache_hits == 1

    def test_signed_zero_features_share_one_cache_entry(self, service):
        """Regression: -0.0 != 0.0 in canonical JSON split the cache."""
        first = service.advise([0.0])
        second = service.advise([-0.0])
        assert first == second
        assert service.stats.cache_hits == 1
        assert service.stats.evaluated == 1

    def test_non_finite_features_rejected_before_model(self, service):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ServingError, match="finite"):
                service.advise([bad])
        assert service.stats.requests == 0  # rejected before entering the path

    def test_lru_eviction_bound(self):
        cache = PredictionCache(capacity=2)
        cache.put("a", "A")
        cache.put("b", "B")
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", "C")
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.evictions == 1


class TestErrors:
    def test_infeasible_objective_raises(self, service):
        with pytest.raises(ServingError, match="deadline"):
            service.advise([4.0], Objective.min_energy_deadline(1e-9))
        assert service.stats.errors == 1

    def test_errors_are_not_cached(self, service):
        for _ in range(2):
            with pytest.raises(ServingError):
                service.advise([4.0], Objective.min_energy_deadline(1e-9))
        assert service.stats.errors == 2
        assert service.stats.cache_hits == 0

    def test_error_does_not_poison_later_requests(self, service):
        with pytest.raises(ServingError):
            service.advise([4.0], Objective.min_energy_deadline(1e-9))
        advice = service.advise([4.0])
        assert advice.objective == "tradeoff"

    def test_a_non_objective_is_refused_before_it_queues(self, service):
        with pytest.raises(ServingError, match="Objective"):
            service.advise([4.0], "tradeoff")
        assert service.stats.requests == 0
        assert service._pending == []


class TestConcurrency:
    def test_concurrent_equals_serial_bitwise(self, fitted_model):
        requests = synthetic_requests(
            [4.0],
            120,
            pool_size=6,
            objectives=[
                Objective.tradeoff(),
                Objective.min_energy_deadline(1e6),
                Objective.max_speedup_power(1e9),
            ],
            seed=3,
        )
        serial_svc = AdvisorService(fitted_model, SERVE_FREQS, model_digest="d")
        serial = run_load(serial_svc, requests, workers=1)
        for workers in (2, 8):
            svc = AdvisorService(fitted_model, SERVE_FREQS, model_digest="d")
            concurrent = run_load(svc, requests, workers=workers)
            assert concurrent == serial

    def test_concurrent_stats_are_consistent(self, fitted_model):
        requests = synthetic_requests([4.0], 80, pool_size=4, seed=1)
        svc = AdvisorService(fitted_model, SERVE_FREQS, model_digest="d", max_batch=4)
        run_load(svc, requests, workers=8)
        stats = svc.stats
        assert stats.requests == 80
        assert stats.cache_hits + stats.evaluated == 80
        assert stats.batch_size_sum == stats.evaluated
        assert stats.batch_size_max <= 4
        assert stats.predictions_computed + stats.coalesced == stats.evaluated
        assert stats.errors == 0
        # Only 4 distinct feature tuples exist, so the cache must have hit.
        assert stats.cache_hits > 0
        assert len(svc.cache) == 4

    def test_followers_batch_behind_blocked_leader(self, fitted_model, monkeypatch):
        """Deterministic contention: a barrier holds the leader inside the
        model call while followers enqueue, so the next drained batch MUST
        have size > 1 — the micro-batching path is provably exercised, not
        left to scheduler luck."""
        import threading

        svc = AdvisorService(
            fitted_model, SERVE_FREQS, model_digest="d", cache_size=0
        )
        real = fitted_model.predict_tradeoff_batch
        leader_entered = threading.Event()
        release_leader = threading.Event()
        batch_sizes = []

        def gated(batch, freqs):
            batch_sizes.append(len(batch))
            if not leader_entered.is_set():
                leader_entered.set()
                assert release_leader.wait(timeout=10)
            return real(batch, freqs)

        # monkeypatch (not bare assignment): fitted_model is session-shared.
        monkeypatch.setattr(svc.model, "predict_tradeoff_batch", gated)

        results = {}

        def ask(size):
            results[size] = svc.advise([size])

        leader = threading.Thread(target=ask, args=(2.0,))
        leader.start()
        assert leader_entered.wait(timeout=10)
        followers = [
            threading.Thread(target=ask, args=(s,)) for s in (4.0, 8.0)
        ]
        for t in followers:
            t.start()
        # Wait until both followers are queued behind the busy leader.
        deadline = threading.Event()
        for _ in range(1000):
            with svc._cond:
                if len(svc._pending) >= 2:
                    break
            deadline.wait(0.01)
        with svc._cond:
            assert len(svc._pending) >= 2
        release_leader.set()
        leader.join(timeout=10)
        for t in followers:
            t.join(timeout=10)

        assert batch_sizes[0] == 1  # the blocked leader served only itself
        assert max(batch_sizes) >= 2  # followers were drained as one batch
        assert svc.stats.batch_size_max >= 2
        # Batched answers are the same advice a serial replay produces.
        with reference_mode():
            serial = AdvisorService(fitted_model, SERVE_FREQS, model_digest="d")
            for size in (2.0, 4.0, 8.0):
                assert results[size] == serial.advise([size])

    def test_model_failure_does_not_strand_followers(self, fitted_model, monkeypatch):
        svc = AdvisorService(fitted_model, SERVE_FREQS, model_digest="d")

        def boom(features_batch, freqs):
            raise RuntimeError("model exploded")

        # monkeypatch (not bare assignment): fitted_model is session-shared.
        monkeypatch.setattr(svc.model, "predict_tradeoff_batch", boom)
        requests = synthetic_requests([4.0], 12, pool_size=12, seed=0)
        with pytest.raises(RuntimeError, match="model exploded"):
            run_load(svc, requests, workers=4)
        # The service must still be operational (no stuck leader flag).
        assert svc._busy is False
        assert svc._pending == []


    def test_a_failing_objective_is_confined_to_its_own_slot(self, fitted_model, monkeypatch):
        """Two requests in one batch: one objective raises, both clients finish."""
        import threading
        import time

        svc = AdvisorService(fitted_model, SERVE_FREQS, model_digest="d", cache_size=0)
        bad = Objective.max_speedup_power(123.0)
        real = Objective.evaluate

        def evaluate(objective, prediction):
            if objective == bad:
                raise RuntimeError("objective exploded")
            return real(objective, prediction)

        monkeypatch.setattr(Objective, "evaluate", evaluate)
        results = {}

        def ask(name, objective):
            try:
                results[name] = svc.advise([4.0], objective)
            except BaseException as exc:  # recorded for the assertions below
                results[name] = exc

        # Hold the service busy so that both requests queue into one batch.
        with svc._cond:
            svc._busy = True
        threads = [
            threading.Thread(target=ask, args=args, daemon=True)
            for args in (("good", Objective.tradeoff()), ("bad", bad))
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10
        while True:
            with svc._cond:
                if len(svc._pending) == 2:
                    svc._busy = False
                    svc._cond.notify_all()
                    break
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.001)
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert svc.stats.batches == 1 and svc.stats.batch_size_max == 2
        assert isinstance(results["bad"], RuntimeError)
        monkeypatch.undo()
        serial = AdvisorService(fitted_model, SERVE_FREQS, model_digest="d")
        assert results["good"] == serial.advise([4.0], Objective.tradeoff())


class TestRegistryIntegration:
    def test_from_registry_uses_artifact_digest(self, registry):
        svc = AdvisorService.from_registry(registry, "toy", SERVE_FREQS)
        assert svc.model_digest == registry.manifest("toy").artifact_sha256
        assert svc.manifest.ref == "toy:v1"
        advice = svc.advise([4.0])
        assert advice.freq_mhz in [float(f) for f in SERVE_FREQS]

    def test_report_mentions_model_ref(self, registry):
        svc = AdvisorService.from_registry(registry, "toy", SERVE_FREQS)
        svc.advise([4.0])
        assert "toy:v1" in svc.report()
        record = svc.as_dict()
        assert record["model"]["name"] == "toy"
        assert record["stats"]["requests"] == 1


class TestBatchedPredictEquivalence:
    def test_batch_equals_scalar_bitwise(self, fitted_model):
        batch = [[1.0], [2.5], [4.0], [16.0]]
        batched = fitted_model.predict_tradeoff_batch(batch, SERVE_FREQS)
        for feats, got in zip(batch, batched):
            want = fitted_model.predict_tradeoff(feats, SERVE_FREQS)
            assert np.array_equal(want.times_s, got.times_s)
            assert np.array_equal(want.energies_j, got.energies_j)
            assert np.array_equal(want.speedups, got.speedups)
            assert np.array_equal(want.normalized_energies, got.normalized_energies)

    def test_empty_batch(self, fitted_model):
        assert fitted_model.predict_tradeoff_batch([], SERVE_FREQS) == []
