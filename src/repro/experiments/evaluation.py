"""Model-accuracy evaluation (paper §5.2, Figure 13) and the regressor
comparison of §5.2.1.

For every validation input the domain-specific model is retrained with
that input's samples held out (leave-one-group-out, §5.2) and both models
predict the speedup and normalized-energy profile over the measured
frequency sweep; MAPE against the measurements yields one Figure-13 bar
pair per input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.ir import KernelSpec
from repro.ml.base import Regressor
from repro.ml.metrics import mean_absolute_percentage_error
from repro.modeling.domain import DomainSpecificModel, default_regressor_factory
from repro.modeling.general import GeneralPurposeModel
from repro.experiments.datasets import CampaignData

__all__ = ["AccuracyRow", "evaluate_fig13", "RegressorScore", "compare_regressors"]


def _resolve_baseline_freq(
    campaign: CampaignData, baseline_freq_mhz: Optional[float]
) -> float:
    """The frequency that normalizes DS predictions (§4.2.3).

    Explicit values win; otherwise the campaign's own measured baseline
    clock is used, so engine-built campaigns on non-V100 devices no
    longer inherit the V100's 1282 MHz default. Auto-governed devices
    (AMD) record no baseline clock and require an explicit value.
    """
    if baseline_freq_mhz is not None:
        return float(baseline_freq_mhz)
    for char in campaign.characterizations.values():
        if char.baseline_freq_mhz is not None:
            return float(char.baseline_freq_mhz)
    raise ConfigurationError(
        "campaign device reports no default clock (AMD auto governor); "
        "pass baseline_freq_mhz explicitly"
    )


@dataclass(frozen=True)
class AccuracyRow:
    """One Figure-13 bar group: GP vs DS MAPE for one validation input."""

    label: str
    features: Tuple[float, ...]
    speedup_mape_gp: float
    speedup_mape_ds: float
    energy_mape_gp: float
    energy_mape_ds: float

    @property
    def speedup_improvement(self) -> float:
        """GP error divided by DS error for the speedup model."""
        return self.speedup_mape_gp / self.speedup_mape_ds

    @property
    def energy_improvement(self) -> float:
        """GP error divided by DS error for the energy model."""
        return self.energy_mape_gp / self.energy_mape_ds


def evaluate_fig13(
    campaign: CampaignData,
    gp_model: GeneralPurposeModel,
    static_spec: KernelSpec,
    feature_names: Sequence[str],
    validation_features: Sequence[Sequence[float]],
    labels: Optional[Sequence[str]] = None,
    baseline_freq_mhz: Optional[float] = None,
    regressor_factory: Callable[[], Regressor] = default_regressor_factory,
) -> List[AccuracyRow]:
    """Reproduce Figure 13 for one application.

    Parameters
    ----------
    campaign:
        Measured dataset + per-input characterizations.
    gp_model:
        A trained general-purpose model (shared across inputs).
    static_spec:
        The application's static kernel aggregate (the only thing the GP
        model sees).
    feature_names:
        Domain-feature names (Table 2).
    validation_features:
        Input tuples to hold out and validate on.
    labels:
        Display labels (defaults to the feature tuples).
    baseline_freq_mhz:
        Frequency whose predicted values normalize the DS prediction;
        defaults to the campaign's own measured baseline clock.
    regressor_factory:
        Regressor used by the DS models.
    """
    if labels is not None and len(labels) != len(validation_features):
        raise ConfigurationError("labels must match validation_features")
    baseline_freq_mhz = _resolve_baseline_freq(campaign, baseline_freq_mhz)
    rows: List[AccuracyRow] = []
    for i, feats in enumerate(validation_features):
        feats_t = tuple(float(f) for f in feats)
        train, _val = campaign.dataset.split_leave_one_out(feats_t)
        ds_model = DomainSpecificModel(
            feature_names, regressor_factory, baseline_freq_mhz=baseline_freq_mhz
        ).fit(train)

        measured = campaign.characterization_for(feats_t)
        freqs = measured.freqs_mhz
        true_sp = measured.speedups()
        true_ne = measured.normalized_energies()

        ds_pred = ds_model.predict_tradeoff(feats_t, freqs, baseline_freq_mhz)
        gp_pred = gp_model.predict_tradeoff(static_spec, freqs, baseline_freq_mhz)

        rows.append(
            AccuracyRow(
                label=labels[i] if labels is not None else str(feats_t),
                features=feats_t,
                speedup_mape_gp=mean_absolute_percentage_error(true_sp, gp_pred.speedups),
                speedup_mape_ds=mean_absolute_percentage_error(true_sp, ds_pred.speedups),
                energy_mape_gp=mean_absolute_percentage_error(
                    true_ne, gp_pred.normalized_energies
                ),
                energy_mape_ds=mean_absolute_percentage_error(
                    true_ne, ds_pred.normalized_energies
                ),
            )
        )
    return rows


@dataclass(frozen=True)
class RegressorScore:
    """Mean LOOCV MAPE of one regression algorithm (§5.2.1 comparison)."""

    name: str
    speedup_mape: float
    energy_mape: float

    @property
    def combined(self) -> float:
        """Average of the two targets (used to rank algorithms)."""
        return 0.5 * (self.speedup_mape + self.energy_mape)


def compare_regressors(
    campaign: CampaignData,
    feature_names: Sequence[str],
    validation_features: Sequence[Sequence[float]],
    factories: Dict[str, Callable[[], Regressor]],
    baseline_freq_mhz: Optional[float] = None,
) -> List[RegressorScore]:
    """§5.2.1: rank regression algorithms by LOOCV MAPE on both targets.

    ``baseline_freq_mhz`` defaults to the campaign's measured baseline
    clock (see :func:`evaluate_fig13`).
    """
    if not factories:
        raise ConfigurationError("no regressor factories supplied")
    baseline_freq_mhz = _resolve_baseline_freq(campaign, baseline_freq_mhz)
    scores: List[RegressorScore] = []
    for name, factory in factories.items():
        sp_errs: List[float] = []
        en_errs: List[float] = []
        for feats in validation_features:
            feats_t = tuple(float(f) for f in feats)
            train, _ = campaign.dataset.split_leave_one_out(feats_t)
            model = DomainSpecificModel(
                feature_names, factory, baseline_freq_mhz=baseline_freq_mhz
            ).fit(train)
            measured = campaign.characterization_for(feats_t)
            pred = model.predict_tradeoff(feats_t, measured.freqs_mhz, baseline_freq_mhz)
            sp_errs.append(
                mean_absolute_percentage_error(measured.speedups(), pred.speedups)
            )
            en_errs.append(
                mean_absolute_percentage_error(
                    measured.normalized_energies(), pred.normalized_energies
                )
            )
        scores.append(
            RegressorScore(
                name=name,
                speedup_mape=float(np.mean(sp_errs)),
                energy_mape=float(np.mean(en_errs)),
            )
        )
    scores.sort(key=lambda s: s.combined)
    return scores
