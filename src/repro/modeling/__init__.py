"""Energy/time modeling: datasets, the general-purpose and domain-specific
models, and Pareto-set prediction (paper §4 and §5.2).
"""

from repro.modeling.adaptive import AdaptiveSweepResult, adaptive_characterize
from repro.modeling.dataset import EnergyDataset, EnergySample
from repro.modeling.domain import (
    DomainSpecificModel,
    TradeoffPrediction,
    default_regressor_factory,
    stack_memory_rows,
)
from repro.modeling.general import (
    GeneralPurposeModel,
    cronos_static_spec,
    ligen_static_spec,
)
from repro.modeling.per_kernel import (
    PER_KERNEL_FEATURE_NAMES,
    KernelWorkload,
    PerKernelModelSuite,
)
from repro.modeling.predictor import (
    ParetoAssessment,
    achieved_points,
    assess_pareto_prediction,
    true_front,
)

__all__ = [
    "AdaptiveSweepResult",
    "DomainSpecificModel",
    "adaptive_characterize",
    "EnergyDataset",
    "EnergySample",
    "GeneralPurposeModel",
    "KernelWorkload",
    "PER_KERNEL_FEATURE_NAMES",
    "ParetoAssessment",
    "PerKernelModelSuite",
    "TradeoffPrediction",
    "achieved_points",
    "assess_pareto_prediction",
    "cronos_static_spec",
    "default_regressor_factory",
    "ligen_static_spec",
    "stack_memory_rows",
    "true_front",
]
