"""DVFS primitives: frequency tables and voltage/frequency curves.

GPUs expose a discrete set of supported core frequencies; DVFS drivers
snap any requested clock to the nearest supported bin. Voltage follows
frequency along a device-specific curve: flat at ``v_min`` up to a knee
frequency, then (approximately) linear up to ``v_max`` at the top bin.
Because dynamic power scales with ``V^2 * f``, the knee is what makes
down-clocking profitable and over-clocking expensive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import FrequencyError
from repro.utils.validation import check_positive

__all__ = ["FrequencyTable", "VoltageCurve"]


@dataclass(frozen=True)
class VoltageCurve:
    """Core voltage as a function of core frequency with a knee.

    ``V(f) = v_min`` for ``f <= f_knee``; above the knee the voltage rises
    as ``v_min + (v_max - v_min) * frac**exponent`` where ``frac`` is the
    normalized distance from knee to ``f_max``. ``exponent > 1`` makes the
    rise superlinear near the top of the range, matching the empirically
    observed V/f curves of recent NVIDIA/AMD GPUs (cf. Guerreiro et al.,
    HPCA'18) where the last few frequency bins are disproportionately
    expensive.
    """

    v_min: float
    v_max: float
    f_min_mhz: float
    f_knee_mhz: float
    f_max_mhz: float
    exponent: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.v_min, "v_min")
        check_positive(self.v_max, "v_max")
        check_positive(self.exponent, "exponent")
        if self.v_max < self.v_min:
            raise ValueError("v_max must be >= v_min")
        if not (self.f_min_mhz <= self.f_knee_mhz <= self.f_max_mhz):
            raise ValueError("require f_min <= f_knee <= f_max")
        if not math.isfinite(self.v_max * self.v_max * self.f_max_mhz):
            # normalized_v2f divides by V(f_max)^2 * f_max.
            raise ValueError(f"v_max^2 * f_max overflows ({self.v_max:g} V)")

    def voltage_at(self, freq_mhz) -> np.ndarray | float:
        """Core voltage (volts) at ``freq_mhz`` (scalar or array)."""
        f = np.asarray(freq_mhz, dtype=float)
        if np.any(f < self.f_min_mhz - 1e-9) or np.any(f > self.f_max_mhz + 1e-9):
            raise FrequencyError(
                f"frequency outside curve range "
                f"[{self.f_min_mhz}, {self.f_max_mhz}] MHz: {freq_mhz}"
            )
        span = max(self.f_max_mhz - self.f_knee_mhz, 1e-12)
        frac = np.clip((f - self.f_knee_mhz) / span, 0.0, 1.0)
        v = self.v_min + (self.v_max - self.v_min) * frac**self.exponent
        return float(v) if np.isscalar(freq_mhz) else v

    def normalized_v2f(self, freq_mhz) -> np.ndarray | float:
        """``V(f)^2 * f`` normalized to its value at ``f_max``.

        This is the scaling factor of dynamic CMOS power; the power model
        multiplies it by the device's peak dynamic power.
        """
        f = np.asarray(freq_mhz, dtype=float)
        v = np.asarray(self.voltage_at(f), dtype=float)
        top = self.v_max**2 * self.f_max_mhz
        out = (v**2 * f) / top
        return float(out) if np.isscalar(freq_mhz) else out


class FrequencyTable:
    """Sorted table of supported core frequencies (MHz) with an optional default.

    NVIDIA devices ship a default application clock (``default_mhz``);
    AMD devices (paper §3.1.1) have no default clock and instead rely on
    an automatic performance level, so ``default_mhz`` may be ``None``.
    """

    def __init__(self, freqs_mhz: Sequence[float], default_mhz: Optional[float] = None):
        arr = np.asarray(sorted(set(float(f) for f in freqs_mhz)), dtype=float)
        if arr.size == 0:
            raise ValueError("frequency table must be non-empty")
        if np.any(arr <= 0) or not np.isfinite(arr).all():
            raise ValueError("frequencies must be positive and finite")
        arr.flags.writeable = False
        self._freqs = arr
        # The table is immutable, so its step is computed once: every
        # snap (one per set_core_frequency) reads it.
        self._step = float(np.median(np.diff(arr))) if arr.size >= 2 else 0.0
        if default_mhz is not None:
            default_mhz = self.snap(float(default_mhz))
        self._default = default_mhz

    @classmethod
    def linear(
        cls,
        lo_mhz: float,
        hi_mhz: float,
        count: int,
        default_mhz: Optional[float] = None,
    ) -> "FrequencyTable":
        """Evenly spaced table of ``count`` bins from ``lo_mhz`` to ``hi_mhz``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if hi_mhz < lo_mhz:
            raise ValueError("hi_mhz must be >= lo_mhz")
        freqs = np.linspace(lo_mhz, hi_mhz, count)
        return cls(freqs, default_mhz=default_mhz)

    @property
    def freqs_mhz(self) -> np.ndarray:
        """All supported frequencies (ascending copy)."""
        return self._freqs.copy()

    @property
    def min_mhz(self) -> float:
        """Lowest supported frequency."""
        return float(self._freqs[0])

    @property
    def max_mhz(self) -> float:
        """Highest supported frequency."""
        return float(self._freqs[-1])

    @property
    def default_mhz(self) -> Optional[float]:
        """The default application clock, or ``None`` (AMD-style devices)."""
        return self._default

    def __len__(self) -> int:
        return int(self._freqs.size)

    def __iter__(self) -> Iterator[float]:
        return iter(float(f) for f in self._freqs)

    def __contains__(self, freq_mhz: float) -> bool:
        return bool(np.any(np.isclose(self._freqs, float(freq_mhz), atol=1e-6)))

    def snap(self, freq_mhz: float) -> float:
        """Snap a requested frequency to the nearest supported bin.

        Raises :class:`FrequencyError` when the request lies outside the
        table's range by more than half a bin (mirrors driver behaviour:
        out-of-range clocks are rejected, in-range ones are quantized).
        """
        f = float(freq_mhz)
        freqs = self._freqs
        i = int(np.searchsorted(freqs, f))
        if i < freqs.size and freqs[i] == f:
            # Already a bin (a sweep's own clocks): it is its own nearest.
            return f
        if not np.isfinite(f) or f <= 0:
            raise FrequencyError(f"invalid frequency request: {freq_mhz!r}")
        step = self._step
        if f < self.min_mhz - step / 2 - 1e-9 or f > self.max_mhz + step / 2 + 1e-9:
            raise FrequencyError(
                f"{f} MHz outside supported range [{self.min_mhz}, {self.max_mhz}] MHz"
            )
        idx = int(np.argmin(np.abs(freqs - f)))
        return float(freqs[idx])

    def step_mhz(self) -> float:
        """Median inter-bin spacing (0 for a single-entry table)."""
        return self._step

    def subsample(self, count: int) -> List[float]:
        """Pick ``count`` approximately evenly spaced frequencies from the table.

        Always includes the lowest and highest bins (and therefore is only
        defined for ``count >= 2`` unless the table has a single entry).
        Used by the frequency-subsampling ablation.
        """
        n = len(self)
        if count >= n:
            return [float(f) for f in self._freqs]
        if count < 2:
            raise ValueError("count must be >= 2 to span the range")
        idx = np.unique(np.round(np.linspace(0, n - 1, count)).astype(int))
        return [float(self._freqs[i]) for i in idx]
