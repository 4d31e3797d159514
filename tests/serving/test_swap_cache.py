"""Advice computed across a ``swap_model`` is never cached under the old model.

``advise`` keys a request outside the service lock and only then queues
it. A swap that lands between the two finds no pending work, installs
the new model, and the queued request is evaluated by the new model.
Its advice used to be cached under the old model's key, so after a
rollback the old model's key answered with the new model's advice.
"""

import sys
import threading

import pytest

from repro.ml.forest import RandomForestRegressor
from repro.modeling.dataset import EnergyDataset, EnergySample
from repro.modeling.domain import DomainSpecificModel
from repro.serving import AdvisorService

from .conftest import SERVE_FREQS, TRAIN_FREQS

FEATURES = (4.0,)


@pytest.fixture(scope="module")
def other_model() -> DomainSpecificModel:
    """A second fitted model whose advice differs from ``fitted_model``'s."""
    ds = EnergyDataset(feature_names=("size",))
    for size in (1.0, 2.0, 4.0, 8.0, 16.0):
        for f in TRAIN_FREQS:
            ds.add(
                EnergySample(
                    features=(size,),
                    freq_mhz=f,
                    time_s=size * 900.0 / f**0.8,
                    energy_j=size * (35.0 + f / 60.0),
                )
            )
    return DomainSpecificModel(
        ("size",),
        regressor_factory=lambda: RandomForestRegressor(n_estimators=8, random_state=1),
        baseline_freq_mhz=1282.0,
    ).fit(ds)


def fresh_advice(model, digest):
    return AdvisorService(model, SERVE_FREQS, model_digest=digest).advise(FEATURES)


def swap_on_first_lookup(monkeypatch, service, model, digest):
    """Swap the served model right after the next request's cache lookup."""
    lookup = service.cache.get

    def get_then_swap(key):
        monkeypatch.setattr(service.cache, "get", lookup)
        cached = lookup(key)
        service.swap_model(model, digest)
        return cached

    monkeypatch.setattr(service.cache, "get", get_then_swap)


def test_rollback_does_not_serve_the_swapped_in_models_advice(
    fitted_model, other_model, monkeypatch
):
    first, second = fresh_advice(fitted_model, "a"), fresh_advice(other_model, "b")
    assert first != second
    service = AdvisorService(fitted_model, SERVE_FREQS, model_digest="a")
    swap_on_first_lookup(monkeypatch, service, other_model, "b")
    assert service.advise(FEATURES) in (first, second)
    assert service.model_digest == "b"

    service.swap_model(fitted_model, "a")
    assert service.advise(FEATURES) == first


def test_concurrent_swaps_never_cache_the_other_models_advice(fitted_model, other_model):
    models = {"a": fitted_model, "b": other_model}
    pool = [(1.0 + 0.25 * n,) for n in range(48)]
    service = AdvisorService(fitted_model, SERVE_FREQS, model_digest="a", max_batch=4)

    def client(offset):
        for i in range(96):
            service.advise(pool[(7 * offset + i) % len(pool)])

    def swapper():
        for i in range(60):
            digest = "ba"[i % 2]
            service.swap_model(models[digest], digest)

    threads = [threading.Thread(target=client, args=(n,)) for n in range(6)]
    threads.append(threading.Thread(target=swapper))
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
    assert service.stats.requests == 6 * 96
    assert service.stats.errors == 0

    for digest, model in models.items():
        service.swap_model(model, digest)
        reference = AdvisorService(model, SERVE_FREQS, model_digest=digest)
        assert [service.advise(f) for f in pool] == [reference.advise(f) for f in pool]
