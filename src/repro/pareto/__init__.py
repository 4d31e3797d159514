"""Pareto-front extraction and front-quality metrics.

- :mod:`repro.pareto.front` — non-dominated set extraction over the
  (speedup, normalized-energy) objective space
- :mod:`repro.pareto.metrics` — exact-frequency matches, coverage,
  generational distance and hypervolume for comparing predicted fronts
  against the true front (paper §5.2.2)
"""

from repro.pareto.front import (
    DEFAULT_FREQ_TOL_MHZ,
    ParetoFront,
    ParetoPoint,
    extract_front,
    half_bin_tolerance,
    pareto_mask,
)
from repro.pareto.metrics import (
    exact_frequency_matches,
    frequency_match_fraction,
    front_coverage,
    generational_distance,
    hypervolume_2d,
)

__all__ = [
    "DEFAULT_FREQ_TOL_MHZ",
    "ParetoFront",
    "ParetoPoint",
    "half_bin_tolerance",
    "exact_frequency_matches",
    "extract_front",
    "frequency_match_fraction",
    "front_coverage",
    "generational_distance",
    "hypervolume_2d",
    "pareto_mask",
]
