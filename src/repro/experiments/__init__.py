"""Experiment harness: configs, campaigns, evaluation, figure builders.

- :mod:`repro.experiments.configs` — the paper's §5.1 workload grids
- :mod:`repro.experiments.datasets` — characterization campaigns
- :mod:`repro.experiments.evaluation` — Fig-13 accuracy and §5.2.1
  regressor comparison
- :mod:`repro.experiments.figures` — per-figure data builders
- :mod:`repro.experiments.report` — ASCII rendering
"""

from repro.experiments import configs
from repro.experiments.datasets import (
    MEM_FEATURE_NAME,
    CampaignData,
    build_cronos_campaign,
    build_ligen_campaign,
)
from repro.experiments.evaluation import (
    AccuracyRow,
    RegressorScore,
    compare_regressors,
    evaluate_fig13,
)
from repro.experiments.figures import (
    CharacterizationSeries,
    ParetoPredictionSeries,
    RawScalingPoint,
    characterization_series,
    ligen_raw_scaling,
    pareto_prediction_series,
)
from repro.experiments.report import (
    render_accuracy_rows,
    render_characterization,
    render_pareto_prediction,
    render_raw_scaling,
    render_regressor_scores,
)

__all__ = [
    "AccuracyRow",
    "CampaignData",
    "CharacterizationSeries",
    "MEM_FEATURE_NAME",
    "ParetoPredictionSeries",
    "RawScalingPoint",
    "RegressorScore",
    "build_cronos_campaign",
    "build_ligen_campaign",
    "characterization_series",
    "compare_regressors",
    "configs",
    "evaluate_fig13",
    "ligen_raw_scaling",
    "pareto_prediction_series",
    "render_accuracy_rows",
    "render_characterization",
    "render_pareto_prediction",
    "render_raw_scaling",
    "render_regressor_scores",
]
