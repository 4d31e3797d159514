"""Static code-feature extraction (general-purpose model, paper Table 1).

The general-purpose model of Fan et al. characterizes code by the ten
static operation-mix counts of Table 1, extracted from the kernel without
executing it. For a whole application, the per-kernel vectors are merged
weighted by each kernel's share of launched work.

Because raw per-thread counts differ in magnitude across kernels, the
model consumes a *normalized* mix (each category as a fraction of the
kernel's total operations) plus a log-scale magnitude feature — this is
the standard normalization used by static GPU power models and keeps the
feature space comparable across micro-benchmarks and applications.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import KernelError
from repro.kernels.ir import FEATURE_NAMES, KernelLaunch, KernelSpec, merge_specs

__all__ = [
    "STATIC_FEATURE_NAMES",
    "extract_normalized_features",
    "application_spec",
    "feature_table_rows",
]

#: Names of the normalized static feature vector: the ten Table-1 mix
#: fractions plus a log-magnitude feature.
STATIC_FEATURE_NAMES: Tuple[str, ...] = tuple(f"mix_{n}" for n in FEATURE_NAMES) + (
    "log_ops_per_thread",
)


def extract_normalized_features(spec: KernelSpec) -> np.ndarray:
    """Normalized static feature vector of one kernel.

    Ten mix fractions (summing to 1) followed by ``log10`` of the total
    per-thread operation count.
    """
    raw = spec.feature_vector()
    total = raw.sum()
    if total <= 0:
        raise KernelError(f"{spec.name}: cannot normalize an empty kernel")
    mix = raw / total
    return np.concatenate([mix, [np.log10(total)]])


def application_spec(launches: Sequence[KernelLaunch], name: str = "app") -> KernelSpec:
    """Aggregate an application's launches into one static spec.

    Kernels are merged weighted by total work (threads x iterations), which
    is what a static analyzer weighting by estimated trip counts produces.
    The result intentionally discards the input-size information — that is
    precisely the general-purpose model's blind spot the paper exploits.
    """
    if not launches:
        raise KernelError("application_spec requires at least one launch")
    pairs = [
        (l.effective_spec(), float(l.threads)) for l in launches
    ]
    return merge_specs(name, pairs)


def feature_table_rows(specs: Iterable[KernelSpec]) -> List[Dict[str, float]]:
    """Rows (kernel name -> Table-1 counts) for reporting, one per kernel."""
    rows: List[Dict[str, float]] = []
    for spec in specs:
        row: Dict[str, float] = {"kernel": spec.name}  # type: ignore[dict-item]
        row.update(spec.feature_dict())
        rows.append(row)
    return rows
