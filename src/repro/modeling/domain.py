"""Domain-specific energy/time models (paper §4.2 and §5.2.1).

Four supervised models per application, all keyed on ``(features, c)``:

- ``T(f_vec, c)`` / ``E(f_vec, c)`` — *absolute* execution time and
  energy (training phase, Fig. 11), learned in log space because the
  targets span orders of magnitude across the input grid;
- the **speedup** and **normalized-energy** models of §5.2.1 — trained on
  each input's measurements normalized by its own baseline-frequency
  measurement. These are what the prediction phase (Fig. 12) uses: being
  scale-free, they interpolate across unseen inputs far better than
  ratios of absolute predictions, which is exactly why the paper trains
  them directly.

The prediction phase (§4.2.3) evaluates the models across all frequency
configurations; no measured value of the predicted input is ever used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DatasetError, ModelNotFittedError
from repro.ml.base import Regressor, check_X
from repro.ml.forest import RandomForestRegressor, _in_reference_mode
from repro.ml.soa import FlatForest
from repro.modeling.dataset import EnergyDataset
from repro.pareto.front import ParetoFront, extract_front
from repro.utils.validation import all_finite, check_positive, ensure_1d

__all__ = [
    "TradeoffPrediction",
    "DomainSpecificModel",
    "default_regressor_factory",
    "stack_memory_rows",
]


def default_regressor_factory() -> Regressor:
    """The paper's winning regressor: Random Forest with default parameters.

    (§5.2.1: Random Forest beat Linear, Lasso and SVR-RBF, and grid search
    confirmed the defaults; we cap ``n_estimators`` at a value that keeps
    full LOOCV sweeps tractable in pure Python.)
    """
    return RandomForestRegressor(n_estimators=30, random_state=1234)


@dataclass(frozen=True)
class TradeoffPrediction:
    """Predicted multi-objective profile of one input across frequencies.

    A core-only profile has one entry per core clock. A 2-D
    ``(f_core, f_mem)`` profile is flattened: ``mem_freqs_mhz`` runs in
    parallel with every other array (build one with
    :func:`stack_memory_rows`).
    """

    freqs_mhz: np.ndarray
    times_s: np.ndarray
    energies_j: np.ndarray
    speedups: np.ndarray
    normalized_energies: np.ndarray
    baseline_freq_mhz: float
    mem_freqs_mhz: Optional[np.ndarray] = None

    def pareto_front(self) -> ParetoFront:
        """Pareto-optimal predicted configurations (§5.2.2 step 2)."""
        return extract_front(
            self.speedups, self.normalized_energies, self.freqs_mhz, self.mem_freqs_mhz
        )

    def pareto_frequencies(self) -> np.ndarray:
        """The predicted Pareto-optimal frequency set (§5.2.2 step 3)."""
        return self.pareto_front().freqs_mhz


def stack_memory_rows(
    rows: Iterable[Tuple[float, TradeoffPrediction]]
) -> TradeoffPrediction:
    """One flattened 2-D profile from ``(mem_freq_mhz, core-only profile)`` rows.

    Rows are concatenated in the given order, so an objective's
    first-index tie break prefers the earlier row. Speedups are only
    comparable across rows normalized against the same baseline (as
    :meth:`repro.runtime.engine.CampaignEngine.characterize_grid`
    measures them); the stacked profile keeps the first row's
    ``baseline_freq_mhz``.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("a grid profile needs at least one (mem, profile) row")
    profiles = [p for _, p in rows]
    return TradeoffPrediction(
        freqs_mhz=np.concatenate([p.freqs_mhz for p in profiles]),
        times_s=np.concatenate([p.times_s for p in profiles]),
        energies_j=np.concatenate([p.energies_j for p in profiles]),
        speedups=np.concatenate([p.speedups for p in profiles]),
        normalized_energies=np.concatenate([p.normalized_energies for p in profiles]),
        baseline_freq_mhz=profiles[0].baseline_freq_mhz,
        mem_freqs_mhz=np.concatenate(
            [np.full(len(p.freqs_mhz), float(m)) for m, p in rows]
        ),
    )


class DomainSpecificModel:
    """Input-feature-driven DVFS-behaviour predictor for one application.

    Parameters
    ----------
    feature_names:
        The application's Table-2 feature names (documentation + arity).
    regressor_factory:
        Zero-argument callable building a fresh regressor; called four
        times (time, energy, speedup, normalized energy). Defaults to the
        paper's Random Forest.
    baseline_freq_mhz:
        The frequency whose measurements normalize the speedup /
        normalized-energy targets (the V100 default clock in the paper's
        setup). Every training input must include a sample at (or within
        half a bin of) this frequency.
    """

    def __init__(
        self,
        feature_names: Sequence[str],
        regressor_factory: Callable[[], Regressor] = default_regressor_factory,
        baseline_freq_mhz: float = 1282.0,
    ) -> None:
        self.feature_names = tuple(feature_names)
        self.regressor_factory = regressor_factory
        self.baseline_freq_mhz = check_positive(baseline_freq_mhz, "baseline_freq_mhz")
        self._time_model: Optional[Regressor] = None
        self._energy_model: Optional[Regressor] = None
        self._speedup_model: Optional[Regressor] = None
        self._norm_energy_model: Optional[Regressor] = None
        self._combined_flat: Optional[Tuple[FlatForest, list]] = None

    # -- training phase (§4.2.2 + §5.2.1) ---------------------------------
    def _baselines(
        self, dataset: EnergyDataset
    ) -> Dict[Tuple[float, ...], Tuple[float, float]]:
        """Per-input (time, energy) at the baseline frequency."""
        freqs = dataset.frequencies()
        tol = max((np.diff(freqs).min() if freqs.size > 1 else 1.0) / 2, 1e-6)
        out: Dict[Tuple[float, ...], Tuple[float, float]] = {}
        acc: Dict[Tuple[float, ...], list] = {}
        for s in dataset.samples:
            if abs(s.freq_mhz - self.baseline_freq_mhz) <= tol:
                acc.setdefault(s.features, []).append((s.time_s, s.energy_j))
        for feats, pairs in acc.items():
            times = np.median([p[0] for p in pairs])
            energies = np.median([p[1] for p in pairs])
            out[feats] = (float(times), float(energies))
        missing = [f for f in dataset.distinct_features() if f not in out]
        if missing:
            raise DatasetError(
                f"{len(missing)} training input(s) have no sample at the baseline "
                f"frequency {self.baseline_freq_mhz} MHz (e.g. {missing[0]}); "
                "include the baseline bin in the training sweep"
            )
        return out

    def fit(self, dataset: EnergyDataset) -> "DomainSpecificModel":
        """Train all four models on ``(features, freq)`` rows."""
        if dataset.feature_names != self.feature_names:
            raise ValueError(
                f"dataset features {dataset.feature_names} do not match model "
                f"features {self.feature_names}"
            )
        X = dataset.X()
        self._time_model = self.regressor_factory().fit(X, np.log(dataset.y_time()))
        self._energy_model = self.regressor_factory().fit(X, np.log(dataset.y_energy()))

        baselines = self._baselines(dataset)
        speedup_t = np.empty(len(dataset))
        norm_e_t = np.empty(len(dataset))
        for i, s in enumerate(dataset.samples):
            base_t, base_e = baselines[s.features]
            speedup_t[i] = base_t / s.time_s
            norm_e_t[i] = s.energy_j / base_e
        self._speedup_model = self.regressor_factory().fit(X, speedup_t)
        self._norm_energy_model = self.regressor_factory().fit(X, norm_e_t)
        self._combined_flat = None  # derived SoA state; rebuilt lazily
        return self

    def _check_fitted(self) -> None:
        if self._time_model is None:
            raise ModelNotFittedError("DomainSpecificModel.fit must be called first")

    def _design(self, features: Sequence[float], freqs_mhz) -> np.ndarray:
        feats = [float(f) for f in features]
        if len(feats) != len(self.feature_names):
            raise ValueError(
                f"expected {len(self.feature_names)} features, got {len(feats)}"
            )
        freqs = ensure_1d(freqs_mhz, "freqs_mhz")
        return np.column_stack([np.tile(feats, (freqs.size, 1)), freqs])

    # -- raw predictions ----------------------------------------------------
    def predict_time(self, features: Sequence[float], freqs_mhz) -> np.ndarray:
        """Predicted absolute execution time (seconds) at each frequency."""
        self._check_fitted()
        return np.exp(self._time_model.predict(self._design(features, freqs_mhz)))

    def predict_energy(self, features: Sequence[float], freqs_mhz) -> np.ndarray:
        """Predicted absolute energy (joules) at each frequency."""
        self._check_fitted()
        return np.exp(self._energy_model.predict(self._design(features, freqs_mhz)))

    # -- prediction phase (§4.2.3 / §5.2.1) ----------------------------------
    def predict_speedup(self, features: Sequence[float], freqs_mhz) -> np.ndarray:
        """Predicted speedup vs the baseline clock at each frequency."""
        self._check_fitted()
        return np.maximum(
            self._speedup_model.predict(self._design(features, freqs_mhz)), 1e-9
        )

    def predict_normalized_energy(self, features: Sequence[float], freqs_mhz) -> np.ndarray:
        """Predicted normalized energy vs the baseline clock."""
        self._check_fitted()
        return np.maximum(
            self._norm_energy_model.predict(self._design(features, freqs_mhz)), 1e-9
        )

    def predict_tradeoff(
        self,
        features: Sequence[float],
        freqs_mhz,
        baseline_freq_mhz: Optional[float] = None,
    ) -> TradeoffPrediction:
        """Speedup / normalized-energy profile over a frequency sweep.

        ``baseline_freq_mhz`` is accepted for API symmetry with the
        general-purpose model but must match the frequency the model was
        trained to normalize against.
        """
        if baseline_freq_mhz is not None and not np.isclose(
            baseline_freq_mhz, self.baseline_freq_mhz, atol=1.0
        ):
            raise ValueError(
                f"model was trained with baseline {self.baseline_freq_mhz} MHz, "
                f"cannot predict against {baseline_freq_mhz} MHz"
            )
        freqs = ensure_1d(freqs_mhz, "freqs_mhz")
        return TradeoffPrediction(
            freqs_mhz=freqs,
            times_s=self.predict_time(features, freqs),
            energies_j=self.predict_energy(features, freqs),
            speedups=self.predict_speedup(features, freqs),
            normalized_energies=self.predict_normalized_energy(features, freqs),
            baseline_freq_mhz=self.baseline_freq_mhz,
        )

    # -- SoA fast path ------------------------------------------------------
    def _combined_flat_forest(self) -> Optional[Tuple[FlatForest, list]]:
        """All four regressors' trees stacked into ONE SoA node pool.

        The four submodels always score the same design matrix, so
        instead of four traversals the batch path walks every tree of
        every submodel in a single level-order pass and recovers each
        submodel's mean from its tree slice (bitwise equal to that
        submodel's own ``predict`` — see
        :meth:`repro.ml.soa.FlatForest.predict_group_means`).

        Returns ``None`` when any submodel is not a fitted
        RandomForestRegressor (custom ``regressor_factory``); callers
        then fall back to per-model prediction.
        """
        cached = getattr(self, "_combined_flat", None)
        if cached is not None:
            return cached
        models = (
            self._time_model,
            self._energy_model,
            self._speedup_model,
            self._norm_energy_model,
        )
        if not all(
            isinstance(m, RandomForestRegressor) and hasattr(m, "estimators_")
            for m in models
        ):
            return None
        trees: list = []
        groups: list = []
        for m in models:
            start = len(trees)
            trees.extend(m.estimators_)
            groups.append((start, len(trees)))
        flat = FlatForest.from_trees(trees, models[0].n_features_in_)
        self._combined_flat = (flat, groups)
        return self._combined_flat

    def _design_batch(self, rows: np.ndarray, freqs: np.ndarray) -> np.ndarray:
        """The stacked design matrix of feature ``rows`` over ``freqs``.

        Row block *i* equals ``self._design(rows[i], freqs)`` exactly
        (pure float copies — no arithmetic), just without the per-request
        ``tile``/``vstack`` round trips.
        """
        (B, d), k = rows.shape, freqs.size
        X = np.empty((B * k, d + 1))
        X[:, :d] = np.repeat(rows, k, axis=0)
        X[:, d] = np.tile(freqs, B)
        return X

    def predict_point_batch(
        self,
        features_rows: Sequence[Sequence[float]],
        freqs_mhz_per_row: Sequence[float],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Absolute (time, energy) at one frequency *per row*.

        The shadow-evaluation primitive: row *i* is scored at exactly
        ``freqs_mhz_per_row[i]`` (an outcome log's advised clock), not a
        shared sweep. One design matrix, one forest pass over the time
        and energy submodels only, and each row's result is bit-identical
        to ``predict_time(features_rows[i], [f_i])[0]`` /
        ``predict_energy(...)`` — so a canary decision replayed from a
        log reproduces exactly.
        """
        self._check_fitted()
        rows = [tuple(float(v) for v in feats) for feats in features_rows]
        freqs = ensure_1d(freqs_mhz_per_row, "freqs_mhz_per_row")
        if len(rows) != freqs.size:
            raise ValueError(
                f"got {len(rows)} feature rows but {freqs.size} frequencies; "
                "predict_point_batch pairs them one-to-one"
            )
        if not rows:
            return np.empty(0), np.empty(0)
        d = len(self.feature_names)
        for feats in rows:
            if len(feats) != d:
                raise ValueError(f"expected {d} features, got {len(feats)}")
        X = np.empty((len(rows), d + 1))
        X[:, :d] = np.asarray(rows, dtype=float)
        X[:, d] = freqs
        combined = None if _in_reference_mode() else self._combined_flat_forest()
        if combined is not None:
            flat, groups = combined
            # Only the time/energy groups are consumed; the single SoA
            # walk over all four is still cheaper than two AoS passes.
            raw_t, raw_e, _raw_s, _raw_n = flat.predict_group_means(
                check_X(X, flat.n_features_in), groups
            )
        else:
            raw_t = self._time_model.predict(X)
            raw_e = self._energy_model.predict(X)
        return np.exp(raw_t), np.exp(raw_e)

    def predict_tradeoff_batch(
        self, features_batch: Sequence[Sequence[float]], freqs_mhz
    ) -> list:
        """Trade-off profiles for many inputs in one vectorized pass.

        The combined pool of **all four regressors' trees** answers the
        batch crossed with the frequency grid
        (:meth:`~repro.ml.soa.FlatForest.predict_crossed_group_means`)
        without a stacked design matrix; reference mode and non-forest
        regressors score the stacked matrix model by model. Row-wise
        prediction, ``exp`` and the clamping ``maximum`` are all
        element-independent and the per-submodel tree accumulation order
        is preserved, so each returned :class:`TradeoffPrediction` is
        bit-identical to what :meth:`predict_tradeoff` would produce for
        that input alone.
        """
        self._check_fitted()
        freqs = ensure_1d(freqs_mhz, "freqs_mhz")
        batch = [tuple(float(v) for v in feats) for feats in features_batch]
        if not batch:
            return []
        d = len(self.feature_names)
        for feats in batch:
            if len(feats) != d:
                raise ValueError(f"expected {d} features, got {len(feats)}")
        rows = np.array(batch, dtype=float)
        combined = None if _in_reference_mode() else self._combined_flat_forest()
        if combined is not None:
            flat, groups = combined
            # check_X of the crossed design matrix, without building it
            if freqs.size and not (all_finite(rows) and all_finite(freqs)):
                raise ValueError("X contains non-finite entries")
            raw_t, raw_e, raw_s, raw_n = flat.predict_crossed_group_means(rows, freqs, groups)
        else:
            X = self._design_batch(rows, freqs)
            raw_t, raw_e, raw_s, raw_n = (
                m.predict(X).reshape(len(batch), freqs.size)
                for m in (
                    self._time_model,
                    self._energy_model,
                    self._speedup_model,
                    self._norm_energy_model,
                )
            )
        times = np.exp(raw_t)
        energies = np.exp(raw_e)
        speedups = np.maximum(raw_s, 1e-9)
        norm_energies = np.maximum(raw_n, 1e-9)
        return [
            TradeoffPrediction(
                freqs_mhz=freqs,
                times_s=times[i],
                energies_j=energies[i],
                speedups=speedups[i],
                normalized_energies=norm_energies[i],
                baseline_freq_mhz=self.baseline_freq_mhz,
            )
            for i in range(len(batch))
        ]
