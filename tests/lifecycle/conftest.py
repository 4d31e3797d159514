"""Lifecycle-suite fixtures: an accurate and a miscalibrated model.

Both models are fitted on the serving suite's analytic workload
(t = size/f, e = size * (20 + f/100)); the "stale" variant trains on
the same curves scaled 2x, so on ground-truth shadow traffic it is
predictably ~100% MAPE while the accurate model sits at a few percent.
That separation is what every canary test keys on — no live
measurement, no noise, deterministic outcomes.
"""

from __future__ import annotations

import pytest

from repro.io import save_domain_model
from repro.lifecycle import OutcomeLog, OutcomeRecord
from repro.ml.forest import RandomForestRegressor
from repro.modeling.dataset import EnergyDataset, EnergySample
from repro.modeling.domain import DomainSpecificModel
from repro.serving import ModelRegistry

TRAIN_FREQS = (400.0, 700.0, 1000.0, 1282.0, 1500.0)
SIZES = (1.0, 2.0, 4.0, 8.0, 16.0)


def true_time(size: float, freq: float) -> float:
    return size * 1000.0 / freq


def true_energy(size: float, freq: float) -> float:
    return size * (20.0 + freq / 100.0)


def analytic_dataset(scale: float = 1.0) -> EnergyDataset:
    """The analytic workload, optionally scaled (2.0 = a stale model)."""
    ds = EnergyDataset(feature_names=("size",))
    for size in SIZES:
        for f in TRAIN_FREQS:
            ds.add(
                EnergySample(
                    features=(size,),
                    freq_mhz=f,
                    time_s=scale * true_time(size, f),
                    energy_j=scale * true_energy(size, f),
                )
            )
    return ds


def fit_model(scale: float = 1.0, seed: int = 0) -> DomainSpecificModel:
    return DomainSpecificModel(
        ("size",),
        regressor_factory=lambda: RandomForestRegressor(
            n_estimators=8, random_state=seed
        ),
        baseline_freq_mhz=1282.0,
    ).fit(analytic_dataset(scale))


@pytest.fixture(scope="session")
def good_model() -> DomainSpecificModel:
    """Fitted on the true curves — low shadow MAPE."""
    return fit_model(scale=1.0)


@pytest.fixture(scope="session")
def stale_model() -> DomainSpecificModel:
    """Fitted on 2x-scaled curves — ~100% shadow MAPE on the truth."""
    return fit_model(scale=2.0)


@pytest.fixture
def registry(good_model, stale_model, tmp_path) -> ModelRegistry:
    """``adv:v1`` = accurate, ``adv:v2`` = stale, ``adv:v3`` = accurate.

    v2 is the candidate that must be rejected, v3 the one that may be
    promoted (it ties v1 on the shadow set, and a tie is "no worse").
    """
    reg = ModelRegistry(tmp_path / "registry")
    for model in (good_model, stale_model, good_model):
        path = tmp_path / "artifact.npz"
        save_domain_model(model, path)
        reg.register(path, "adv", app="synthetic")
    return reg


def make_records(n: int = 12, digest: str = "d0") -> list:
    """Shadow records whose measured values are the analytic truth."""
    out = []
    for i in range(n):
        size = SIZES[i % len(SIZES)]
        freq = TRAIN_FREQS[i % len(TRAIN_FREQS)]
        t, e = true_time(size, freq), true_energy(size, freq)
        out.append(
            OutcomeRecord(
                seq=i,
                features=(size,),
                freq_mhz=freq,
                predicted_time_s=t,
                predicted_energy_j=e,
                measured_time_s=t,
                measured_energy_j=e,
                model_digest=digest,
            )
        )
    return out


@pytest.fixture
def shadow_records():
    return make_records()


@pytest.fixture
def outcome_log():
    return OutcomeLog(window=8, shadow_capacity=4, seed=7)
