"""Struct-of-arrays view of a sequence of kernel launches.

The timing and power models are pure functions of (launch, frequency), so
a launch sequence can be evaluated as a dense (unique-launch x frequency)
grid instead of one scalar call per occurrence. Both shipped applications
repeat a handful of distinct launches many times (Cronos re-issues the
same ~12 stencil launches every step), so deduplicating identical
launches into (unique, count) form collapses most of the grid before any
arithmetic happens.

:class:`KernelLaunchBatch` performs that dedup and exposes the launch
parameters as flat NumPy arrays — the input format of
:meth:`repro.hw.perf.RooflineTimingModel.time_batch` and
:meth:`repro.hw.device.SimulatedGPU.evaluate_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import KernelError
from repro.kernels.ir import KernelLaunch

__all__ = ["KernelLaunchBatch"]


@dataclass(frozen=True)
class KernelLaunchBatch:
    """A deduplicated launch sequence in struct-of-arrays form.

    Attributes
    ----------
    unique:
        The distinct launches, in first-appearance order.
    counts:
        Occurrence count per unique launch (``int64``).
    inverse:
        For every launch in the original sequence, the index of its
        unique representative: ``[unique[i] for i in inverse]``
        reconstructs the original order.
    features:
        ``(n_unique, 10)`` static feature matrix in
        :data:`repro.kernels.ir.FEATURE_NAMES` order.
    threads, work_iterations:
        Per-unique launch configuration arrays.
    """

    unique: Tuple[KernelLaunch, ...]
    counts: np.ndarray
    inverse: np.ndarray
    features: np.ndarray
    threads: np.ndarray
    work_iterations: np.ndarray

    def __post_init__(self) -> None:
        for name in ("counts", "inverse", "features", "threads", "work_iterations"):
            getattr(self, name).flags.writeable = False

    @property
    def n_unique(self) -> int:
        """Number of distinct launches."""
        return len(self.unique)

    @property
    def n_launches(self) -> int:
        """Length of the original sequence (duplicates included)."""
        return int(self.inverse.size)

    def __len__(self) -> int:
        return self.n_launches

    @classmethod
    def from_launches(cls, launches: Iterable[KernelLaunch]) -> "KernelLaunchBatch":
        """Build a batch from a launch sequence, deduplicating identical launches.

        :class:`KernelLaunch` is a frozen dataclass, hashable by value, so
        two launches with equal spec and configuration share one slot.
        """
        unique: List[KernelLaunch] = []
        index: Dict[KernelLaunch, int] = {}
        inverse: List[int] = []
        counts: List[int] = []
        for launch in launches:
            if not isinstance(launch, KernelLaunch):
                raise KernelError(
                    f"expected KernelLaunch, got {type(launch).__name__}"
                )
            i = index.get(launch)
            if i is None:
                i = len(unique)
                index[launch] = i
                unique.append(launch)
                counts.append(0)
            counts[i] += 1
            inverse.append(i)
        if unique:
            features = np.stack([l.spec.feature_vector() for l in unique])
        else:
            features = np.zeros((0, 10), dtype=float)
        return cls(
            unique=tuple(unique),
            counts=np.asarray(counts, dtype=np.int64),
            inverse=np.asarray(inverse, dtype=np.intp),
            features=features,
            threads=np.asarray([l.threads for l in unique], dtype=np.int64),
            work_iterations=np.asarray(
                [l.work_iterations for l in unique], dtype=float
            ),
        )
