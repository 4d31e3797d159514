"""Kernel IR, static feature extraction, and the micro-benchmark suite.

- :mod:`repro.kernels.ir` — per-thread operation-mix kernel descriptions
  (the ten static-feature categories of paper Table 1)
- :mod:`repro.kernels.features` — static feature extraction/normalization
- :mod:`repro.kernels.microbench` — the 106-benchmark training suite of
  the general-purpose model (Fan et al.)
- :mod:`repro.kernels.batch` — deduplicated struct-of-arrays launch
  batches for vectorized model evaluation
"""

from repro.kernels.batch import KernelLaunchBatch
from repro.kernels.features import (
    STATIC_FEATURE_NAMES,
    application_spec,
    extract_normalized_features,
    feature_table_rows,
)
from repro.kernels.ir import (
    FEATURE_NAMES,
    OP_CYCLE_COSTS,
    KernelLaunch,
    KernelSpec,
    merge_specs,
)
from repro.kernels.microbench import (
    N_MICROBENCHMARKS,
    MicroBenchmark,
    generate_microbenchmarks,
)

__all__ = [
    "FEATURE_NAMES",
    "N_MICROBENCHMARKS",
    "OP_CYCLE_COSTS",
    "STATIC_FEATURE_NAMES",
    "KernelLaunch",
    "KernelLaunchBatch",
    "KernelSpec",
    "MicroBenchmark",
    "application_spec",
    "extract_normalized_features",
    "feature_table_rows",
    "generate_microbenchmarks",
    "merge_specs",
]
