"""Adaptive frequency profiling (curvature-guided sweeps).

Building the training set is the paper's dominant cost: every input must
be executed at "each (or a part) of" the 196 frequency bins, five times.
The frequency axis, however, is smooth — a handful of well-placed bins
pins the whole curve. This module chooses those bins *adaptively*, the
way adaptive quadrature does: after seeding with the range endpoints and
the baseline clock, it repeatedly bisects the measured segment whose
normalized-energy curve shows the largest estimated interpolation error
(local curvature x width^2), so bins concentrate where linear
interpolation is weakest instead of being spread uniformly.

The ablation bench ``benchmarks/test_ablation_adaptive.py`` quantifies
the payoff against evenly spaced sweeps at equal measurement budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.synergy.api import SynergyDevice
from repro.synergy.runner import Application, CharacterizationResult, characterize
from repro.utils.validation import check_positive_int

__all__ = ["AdaptiveSweepResult", "adaptive_characterize"]


@dataclass
class AdaptiveSweepResult:
    """Outcome of an adaptive sweep: the measurements plus the visit order."""

    result: CharacterizationResult
    visit_order: List[float] = field(default_factory=list)

    @property
    def n_measured(self) -> int:
        """Number of frequency bins actually profiled."""
        return len(self.result.samples)


def _segment_priorities(freqs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Estimated interpolation error per segment (curvature x width^2).

    The curvature of segment ``[i, i+1]`` is approximated by the change of
    slope across its endpoints; end segments inherit their single
    neighbouring slope change.
    """
    slopes = np.diff(values) / np.maximum(np.diff(freqs), 1e-9)
    slope_change = np.abs(np.diff(slopes))  # per interior point
    n_seg = freqs.size - 1
    curv = np.zeros(n_seg)
    for seg in range(n_seg):
        left = slope_change[seg - 1] if seg - 1 >= 0 else 0.0
        right = slope_change[seg] if seg < slope_change.size else 0.0
        curv[seg] = max(left, right)
    widths = np.diff(freqs)
    return curv * widths**2


def adaptive_characterize(
    app: Application,
    device: SynergyDevice,
    budget: int,
    candidate_freqs: Optional[Sequence[float]] = None,
    repetitions: int = 3,
) -> AdaptiveSweepResult:
    """Profile ``app`` at ``budget`` adaptively chosen frequency bins.

    Parameters
    ----------
    app, device:
        As in :func:`repro.synergy.runner.characterize`.
    budget:
        Total bins to measure (must be >= 4: the two endpoints, the
        baseline, and at least one adaptive pick).
    candidate_freqs:
        Pool to choose from (default: the device's full table).
    repetitions:
        Measurements per bin.
    """
    budget = check_positive_int(budget, "budget")
    if budget < 4:
        raise ConfigurationError("adaptive sweep needs a budget of at least 4 bins")

    table = device.gpu.spec.core_freqs
    if candidate_freqs is None:
        pool = [float(f) for f in table.freqs_mhz]
    else:
        pool = sorted({float(table.snap(f)) for f in candidate_freqs})
    default = device.gpu.spec.default_clock_mhz
    baseline = default if default is not None else pool[-1]
    seeds = sorted({pool[0], pool[-1], float(baseline)})
    budget = min(budget, len(pool))

    visit_order: List[float] = list(seeds)
    measured = characterize(app, device, freqs_mhz=seeds, repetitions=repetitions)

    while len(measured.samples) < budget:
        freqs = measured.freqs_mhz
        values = measured.normalized_energies()
        remaining = np.array(sorted(set(pool) - set(float(f) for f in freqs)))
        if remaining.size == 0:
            break

        priorities = _segment_priorities(freqs, values)
        pick: Optional[float] = None
        for seg in np.argsort(priorities)[::-1]:
            lo, hi = freqs[seg], freqs[seg + 1]
            inside = remaining[(remaining > lo) & (remaining < hi)]
            if inside.size:
                mid = 0.5 * (lo + hi)
                pick = float(inside[int(np.argmin(np.abs(inside - mid)))])
                break
        if pick is None:
            # every prioritized segment is saturated: take the candidate
            # farthest from any measured bin
            gaps = np.min(np.abs(remaining[:, None] - freqs[None, :]), axis=1)
            pick = float(remaining[int(np.argmax(gaps))])

        extra = characterize(app, device, freqs_mhz=[pick], repetitions=repetitions)
        measured.samples.extend(extra.samples)
        measured.samples.sort(key=lambda s: s.freq_mhz)
        visit_order.append(pick)

    return AdaptiveSweepResult(result=measured, visit_order=visit_order)
