"""Training datasets for the energy/time models.

A dataset holds samples ``s = (f_vec, c, t, e)`` exactly as defined in
paper §4.2.2: input feature vector, core-frequency configuration,
measured execution time, and measured energy. Group labels (one per
distinct feature vector) support the paper's leave-one-input-out
cross-validation (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.synergy.runner import CharacterizationResult

__all__ = ["EnergySample", "EnergyDataset"]


@dataclass(frozen=True)
class EnergySample:
    """One measurement: ``(features, frequency, time, energy)``."""

    features: Tuple[float, ...]
    freq_mhz: float
    time_s: float
    energy_j: float

    def __post_init__(self) -> None:
        if self.time_s <= 0 or self.energy_j <= 0:
            raise DatasetError("time and energy must be positive")


@dataclass
class EnergyDataset:
    """A labelled collection of :class:`EnergySample`.

    ``feature_names`` documents the feature order (paper Table 2), and
    every sample's feature tuple must have the matching length.
    """

    feature_names: Tuple[str, ...]
    samples: List[EnergySample] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.feature_names:
            raise DatasetError("feature_names must be non-empty")
        for s in self.samples:
            self._check_sample(s)

    def _check_sample(self, s: EnergySample) -> None:
        if len(s.features) != len(self.feature_names):
            raise DatasetError(
                f"sample has {len(s.features)} features, dataset declares "
                f"{len(self.feature_names)}"
            )

    # ------------------------------------------------------------------
    def add(self, sample: EnergySample) -> None:
        """Append one sample (validated against the feature arity)."""
        self._check_sample(sample)
        self.samples.append(sample)

    def add_characterization(
        self, features: Sequence[float], result: CharacterizationResult
    ) -> None:
        """Append every frequency point of a characterization sweep."""
        feats = tuple(float(f) for f in features)
        for s in result.samples:
            self.add(
                EnergySample(
                    features=feats, freq_mhz=s.freq_mhz, time_s=s.time_s, energy_j=s.energy_j
                )
            )

    def __len__(self) -> int:
        return len(self.samples)

    # -- matrix views -----------------------------------------------------
    def X(self) -> np.ndarray:
        """Design matrix: features followed by the frequency column."""
        if not self.samples:
            raise DatasetError("dataset is empty")
        return np.array(
            [list(s.features) + [s.freq_mhz] for s in self.samples], dtype=float
        )

    def y_time(self) -> np.ndarray:
        """Execution-time targets (seconds)."""
        return np.array([s.time_s for s in self.samples], dtype=float)

    def y_energy(self) -> np.ndarray:
        """Energy targets (joules)."""
        return np.array([s.energy_j for s in self.samples], dtype=float)

    def groups(self) -> np.ndarray:
        """Group id per sample: one label per distinct feature tuple."""
        labels: Dict[Tuple[float, ...], int] = {}
        out = np.empty(len(self.samples), dtype=np.int64)
        for i, s in enumerate(self.samples):
            out[i] = labels.setdefault(s.features, len(labels))
        return out

    def distinct_features(self) -> List[Tuple[float, ...]]:
        """Distinct feature tuples in first-seen order."""
        seen: Dict[Tuple[float, ...], None] = {}
        for s in self.samples:
            seen.setdefault(s.features, None)
        return list(seen)

    def frequencies(self) -> np.ndarray:
        """Sorted distinct frequencies present in the dataset."""
        return np.unique(np.array([s.freq_mhz for s in self.samples]))

    # -- the paper's LOOCV split (§5.2) ------------------------------------
    def split_leave_one_out(
        self, features: Sequence[float]
    ) -> Tuple["EnergyDataset", "EnergyDataset"]:
        """``D_v`` = samples with these input features; ``D_t = D \\ D_v``."""
        key = tuple(float(f) for f in features)
        val = [s for s in self.samples if s.features == key]
        train = [s for s in self.samples if s.features != key]
        if not val:
            raise DatasetError(f"no samples with features {key}")
        if not train:
            raise DatasetError("training split would be empty")
        return (
            EnergyDataset(self.feature_names, train),
            EnergyDataset(self.feature_names, val),
        )
