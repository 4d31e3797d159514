"""Pareto-front extraction for the speedup / normalized-energy trade-off.

Convention (paper §2.1): a configuration is Pareto-optimal when no other
configuration achieves **higher speedup** without **higher normalized
energy** — i.e. we maximize speedup and minimize energy. Ties are handled
so that duplicated points are reported once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Sequence

import numpy as np

from repro.utils.validation import check_finite_array

__all__ = [
    "ParetoPoint",
    "ParetoFront",
    "pareto_mask",
    "extract_front",
    "half_bin_tolerance",
    "DEFAULT_FREQ_TOL_MHZ",
]

#: Floor for frequency-matching tolerances: just over half the smallest
#: realistic driver quantum, so two floats that snap onto the same bin
#: always match while neighbouring bins of every modeled device (>= 7.5
#: MHz spacing) never do.
DEFAULT_FREQ_TOL_MHZ = 0.51


def half_bin_tolerance(freqs_mhz, floor_mhz: float = DEFAULT_FREQ_TOL_MHZ) -> float:
    """Frequency-matching tolerance derived from a sweep grid.

    Half the median bin spacing of ``freqs_mhz``, floored at
    ``floor_mhz``: a frequency within half a bin of a grid point would
    snap onto it, anything further away belongs to a different bin. This
    is the one shared definition used by Pareto-front membership
    (:meth:`ParetoFront.contains_freq`), the §5.2.2 assessment and the
    CLI — so "is this frequency on the front?" means the same thing
    everywhere. A grid with fewer than two points has no spacing; the
    tolerance falls back to 1 MHz.
    """
    fr = np.asarray(freqs_mhz, dtype=float).ravel()
    if fr.size < 2:
        return max(float(floor_mhz), 1.0)
    return max(float(np.median(np.diff(np.sort(fr)))) / 2.0, float(floor_mhz))


@dataclass(frozen=True)
class ParetoPoint:
    """One configuration on (or compared against) a Pareto front.

    ``mem_freq_mhz`` is the memory clock of a 2-D ``(f_core, f_mem)``
    configuration and ``None`` on a core-only sweep. Domination is
    judged in the (speedup, energy) objective plane alone; the clocks
    only identify *which* configuration achieved the point.
    """

    speedup: float
    energy: float
    freq_mhz: float
    mem_freq_mhz: Optional[float] = None

    def dominates(self, other: "ParetoPoint", tol: float = 0.0) -> bool:
        """True if this point is at least as good on both axes and strictly
        better on at least one (with optional tolerance ``tol``)."""
        at_least = self.speedup >= other.speedup - tol and self.energy <= other.energy + tol
        strictly = self.speedup > other.speedup + tol or self.energy < other.energy - tol
        return at_least and strictly


def pareto_mask(speedups, energies) -> np.ndarray:
    """Boolean mask of non-dominated points (maximize speedup, minimize energy).

    ``O(n log n)``: sort by speedup descending (energy ascending as a tie
    break) and scan, keeping points whose energy strictly improves on the
    best seen so far; within an exact tie on both axes only the first
    occurrence is kept.
    """
    sp = check_finite_array(speedups, "speedups").ravel()
    en = check_finite_array(energies, "energies").ravel()
    if sp.shape != en.shape:
        raise ValueError("speedups and energies must have the same length")
    n = sp.size
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    order = np.lexsort((en, -sp))  # speedup desc, then energy asc
    best_energy = np.inf
    prev_sp = np.nan
    prev_en = np.nan
    for idx in order:
        s, e = sp[idx], en[idx]
        if e < best_energy:
            mask[idx] = True
            best_energy = e
            prev_sp, prev_en = s, e
        elif e == best_energy and s == prev_sp and e == prev_en:
            # exact duplicate of the previously kept point: skip
            continue
    return mask


class ParetoFront:
    """An extracted Pareto front: points ordered by increasing speedup."""

    def __init__(self, points: Sequence[ParetoPoint]) -> None:
        self._points: List[ParetoPoint] = sorted(points, key=lambda p: (p.speedup, p.energy))

    @property
    def points(self) -> List[ParetoPoint]:
        """Front points, ascending speedup."""
        return list(self._points)

    @property
    def freqs_mhz(self) -> np.ndarray:
        """Frequencies of the front configurations."""
        return np.array([p.freq_mhz for p in self._points], dtype=float)

    @property
    def mem_freqs_mhz(self) -> np.ndarray:
        """Memory clocks of the front configurations (NaN on a core-only front)."""
        return np.array([p.mem_freq_mhz for p in self._points], dtype=float)

    @property
    def speedups(self) -> np.ndarray:
        """Speedups of the front configurations (ascending)."""
        return np.array([p.speedup for p in self._points], dtype=float)

    @property
    def energies(self) -> np.ndarray:
        """Normalized energies of the front configurations."""
        return np.array([p.energy for p in self._points], dtype=float)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def contains_freq(
        self,
        freq_mhz: float,
        tol_mhz: float = DEFAULT_FREQ_TOL_MHZ,
        mem_freq_mhz: Optional[float] = None,
        mem_tol_mhz: Optional[float] = None,
    ) -> bool:
        """True if a configuration with frequency ``freq_mhz`` is on the front.

        Pass ``tol_mhz=half_bin_tolerance(grid)`` to match against a
        specific sweep grid instead of the conservative default floor.
        With ``mem_freq_mhz`` the ``(core, mem)`` pair must appear
        jointly on one front point. Core and memory tables have very
        different bin spacings, so the memory axis takes its own
        ``mem_tol_mhz`` (defaulting to ``tol_mhz``).
        """
        if len(self._points) == 0:
            return False
        hit = np.abs(self.freqs_mhz - float(freq_mhz)) <= tol_mhz
        if mem_freq_mhz is not None:
            if mem_tol_mhz is None:
                mem_tol_mhz = tol_mhz
            hit &= np.abs(self.mem_freqs_mhz - float(mem_freq_mhz)) <= mem_tol_mhz
        return bool(np.any(hit))

    def max_speedup_point(self) -> ParetoPoint:
        """The highest-performance front point."""
        if not self._points:
            raise ValueError("empty front")
        return self._points[-1]

    def min_energy_point(self) -> ParetoPoint:
        """The lowest-energy front point."""
        if not self._points:
            raise ValueError("empty front")
        return min(self._points, key=lambda p: p.energy)

    def is_consistent(self) -> bool:
        """Sanity invariant: along ascending speedup, energy must ascend too
        (otherwise some kept point would dominate another)."""
        en = self.energies
        return bool(np.all(np.diff(en) >= -1e-12))


def extract_front(speedups, energies, freqs_mhz, mem_freqs_mhz=None) -> ParetoFront:
    """Extract the Pareto front from parallel arrays of configurations.

    ``mem_freqs_mhz`` makes the configurations 2-D: it runs in parallel
    with the other arrays over the flattened ``(core, mem)`` grid, and
    each front point carries its memory clock. The objective plane is
    unchanged (maximize speedup, minimize energy).
    """
    sp = check_finite_array(speedups, "speedups").ravel()
    en = check_finite_array(energies, "energies").ravel()
    fr = check_finite_array(freqs_mhz, "freqs_mhz").ravel()
    if not (sp.size == en.size == fr.size):
        raise ValueError("speedups, energies and freqs_mhz must have equal length")
    mask = pareto_mask(sp, en)
    if mem_freqs_mhz is None:
        mems = repeat(None)
    else:
        mf = check_finite_array(mem_freqs_mhz, "mem_freqs_mhz").ravel()
        if mf.size != sp.size:
            raise ValueError("mem_freqs_mhz and freqs_mhz must have equal length")
        mems = mf[mask].tolist()
    pts = [
        ParetoPoint(speedup=float(s), energy=float(e), freq_mhz=float(f), mem_freq_mhz=m)
        for s, e, f, m in zip(sp[mask], en[mask], fr[mask], mems)
    ]
    return ParetoFront(pts)
