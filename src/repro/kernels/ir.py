"""Kernel intermediate representation.

Applications describe each GPU kernel to the simulator as a per-thread
mix of typed operations — exactly the ten static-feature categories of the
general-purpose energy model of Fan et al. (paper Table 1):

====================  =============================================
feature               meaning (per-thread counts)
====================  =============================================
``int_add``           integer additions and subtractions
``int_mul``           integer multiplications
``int_div``           integer divisions
``int_bw``            integer bitwise operations
``float_add``         floating-point additions and subtractions
``float_mul``         floating-point multiplications
``float_div``         floating-point divisions
``special_fn``        special functions (sin, cos, exp, sqrt, ...)
``global_access``     global-memory accesses (8-byte words)
``local_access``      local/shared-memory accesses
====================  =============================================

A :class:`KernelSpec` is *static*: it depends only on the code. A
:class:`KernelLaunch` binds a spec to a launch configuration (number of
threads and an optional per-thread iteration multiplier), which is where
the input size enters. This split is what lets the general-purpose model
see only static information while the true behaviour varies with input —
the central mechanism of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.errors import KernelError

__all__ = [
    "FEATURE_NAMES",
    "OP_CYCLE_COSTS",
    "KernelSpec",
    "KernelLaunch",
    "merge_specs",
]

#: Canonical order of the static feature categories (paper Table 1).
FEATURE_NAMES: Tuple[str, ...] = (
    "int_add",
    "int_mul",
    "int_div",
    "int_bw",
    "float_add",
    "float_mul",
    "float_div",
    "special_fn",
    "global_access",
    "local_access",
)

#: Issue cost (cycles per operation) used by the timing model. Arithmetic
#: costs approximate throughput-reciprocal cycles on a Volta/CDNA-class SM;
#: memory entries are the *issue* cost only — DRAM time is modeled
#: separately from bandwidth and latency.
OP_CYCLE_COSTS: Dict[str, float] = {
    "int_add": 1.0,
    "int_mul": 3.0,
    "int_div": 22.0,
    "int_bw": 1.0,
    "float_add": 1.0,
    "float_mul": 1.0,
    "float_div": 14.0,
    "special_fn": 10.0,
    "global_access": 4.0,
    "local_access": 2.0,
}


@dataclass(frozen=True)
class KernelSpec:
    """Static description of one GPU kernel: per-thread operation mix.

    All counts are average per-thread values and may be fractional (e.g. a
    branch executed by half the threads contributes 0.5).
    """

    name: str
    int_add: float = 0.0
    int_mul: float = 0.0
    int_div: float = 0.0
    int_bw: float = 0.0
    float_add: float = 0.0
    float_mul: float = 0.0
    float_div: float = 0.0
    special_fn: float = 0.0
    global_access: float = 0.0
    local_access: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise KernelError("kernel name must be non-empty")
        for feat in FEATURE_NAMES:
            v = getattr(self, feat)
            # Reject anything that float() would silently coerce (bools,
            # strings, single-element arrays): op counts must arrive as
            # real numbers, and are normalized to python floats here.
            if isinstance(v, bool) or not isinstance(
                v, (int, float, np.integer, np.floating)
            ):
                raise KernelError(
                    f"{self.name}: feature {feat} must be a real number, "
                    f"got {type(v).__name__} ({v!r})"
                )
            v = float(v)
            if not np.isfinite(v) or v < 0:
                raise KernelError(f"{self.name}: feature {feat} must be >= 0, got {v}")
            object.__setattr__(self, feat, v)
        if self.total_ops() <= 0:
            raise KernelError(f"{self.name}: kernel must perform at least one operation")

    def feature_vector(self) -> np.ndarray:
        """The 10-entry static feature vector in :data:`FEATURE_NAMES` order."""
        return np.array([getattr(self, f) for f in FEATURE_NAMES], dtype=float)

    def feature_dict(self) -> Dict[str, float]:
        """Features as an ordered name->count mapping."""
        return {f: float(getattr(self, f)) for f in FEATURE_NAMES}

    def total_ops(self) -> float:
        """Total per-thread operation count across all categories."""
        return float(sum(getattr(self, f) for f in FEATURE_NAMES))

    def compute_ops(self) -> float:
        """Per-thread arithmetic operations (everything except memory accesses)."""
        return self.total_ops() - self.global_access - self.local_access

    def cycles_per_thread(self, costs: Mapping[str, float] = OP_CYCLE_COSTS) -> float:
        """Issue cycles per thread under the given per-op cost table."""
        return float(sum(getattr(self, f) * costs[f] for f in FEATURE_NAMES))

    def arithmetic_intensity(self, bytes_per_access: float = 8.0) -> float:
        """Compute ops per byte of global traffic (``inf`` if no global traffic)."""
        traffic = self.global_access * bytes_per_access
        if traffic <= 0:
            return float("inf")
        return self.compute_ops() / traffic

    def scaled(self, factor: float, name: str | None = None) -> "KernelSpec":
        """A copy with every per-thread count multiplied by ``factor``.

        Used when per-thread work grows with an input parameter (e.g.
        LiGen's optimize kernel does more work per thread for heavier
        ligands).
        """
        if not np.isfinite(factor) or factor <= 0:
            raise KernelError(f"scale factor must be positive, got {factor}")
        kwargs = {f: getattr(self, f) * factor for f in FEATURE_NAMES}
        return KernelSpec(name=name or self.name, **kwargs)


def merge_specs(name: str, specs: Iterable[Tuple[KernelSpec, float]]) -> KernelSpec:
    """Weighted merge of several specs into one (weights = relative thread share).

    The general-purpose model characterizes an *application* by a single
    static feature vector; this helper builds that aggregate from the
    application's kernel mix.
    """
    pairs: List[Tuple[KernelSpec, float]] = [(s, float(w)) for s, w in specs]
    if not pairs:
        raise KernelError("merge_specs requires at least one spec")
    total_w = sum(w for _, w in pairs)
    if total_w <= 0:
        raise KernelError("merge weights must sum to a positive value")
    acc = {f: 0.0 for f in FEATURE_NAMES}
    for spec, w in pairs:
        for f in FEATURE_NAMES:
            acc[f] += getattr(spec, f) * (w / total_w)
    return KernelSpec(name=name, **acc)


@dataclass(frozen=True)
class KernelLaunch:
    """One kernel invocation: a static spec bound to a launch configuration.

    Attributes
    ----------
    spec:
        The kernel's static operation mix.
    threads:
        Number of work items launched (the input-dependent quantity).
    work_iterations:
        Per-thread work multiplier for kernels whose inner loop trip count
        depends on the input (all per-thread counts are multiplied by it).
    """

    spec: KernelSpec
    threads: int
    work_iterations: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.threads, (int, np.integer)) or isinstance(self.threads, bool):
            raise KernelError("threads must be an int")
        if self.threads < 1:
            raise KernelError(f"threads must be >= 1, got {self.threads}")
        if not np.isfinite(self.work_iterations) or self.work_iterations <= 0:
            raise KernelError(
                f"work_iterations must be positive, got {self.work_iterations}"
            )

    def effective_spec(self) -> KernelSpec:
        """Spec with ``work_iterations`` folded into the per-thread counts."""
        if self.work_iterations == 1.0:
            return self.spec
        return self.spec.scaled(self.work_iterations)

    def cycles_per_thread(self) -> float:
        """Issue cycles per thread including the iteration multiplier."""
        return self.spec.cycles_per_thread() * self.work_iterations

    def total_global_accesses(self) -> float:
        """Global memory accesses summed over all threads."""
        return self.spec.global_access * self.work_iterations * self.threads

    def total_bytes_global(self, bytes_per_access: float = 8.0) -> float:
        """Global memory traffic in bytes summed over all threads."""
        return self.total_global_accesses() * bytes_per_access

    def total_compute_ops(self) -> float:
        """Arithmetic operations summed over all threads."""
        return self.spec.compute_ops() * self.work_iterations * self.threads

    def with_threads(self, threads: int) -> "KernelLaunch":
        """Copy of this launch with a different thread count."""
        return replace(self, threads=int(threads))
