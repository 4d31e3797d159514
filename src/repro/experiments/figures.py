"""Figure-data builders.

Every figure in the paper's evaluation is a scatter/series over a
frequency sweep; these builders produce the corresponding data as plain
records so the benchmark harness can print the same series the paper
plots (and tests can assert their shape).

Figure map:

- Figs 1-5, 10: speedup vs normalized energy with Pareto front ->
  :func:`characterization_series`
- Figs 6-9: raw energy vs time while scaling atoms/fragments ->
  :func:`ligen_raw_scaling`
- Fig 13: :mod:`repro.experiments.evaluation`
- Fig 14: :func:`pareto_prediction_series`
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ligen.app import LigenApplication
from repro.modeling.domain import TradeoffPrediction
from repro.modeling.predictor import ParetoAssessment, assess_pareto_prediction, true_front
from repro.pareto.front import ParetoFront
from repro.synergy.api import SynergyDevice
from repro.synergy.runner import Application, CharacterizationResult, characterize

__all__ = [
    "CharacterizationSeries",
    "characterization_series",
    "RawScalingPoint",
    "ligen_raw_scaling",
    "ParetoPredictionSeries",
    "pareto_prediction_series",
]


@dataclass
class CharacterizationSeries:
    """One speedup/normalized-energy scatter plus its Pareto front."""

    result: CharacterizationResult
    front: ParetoFront

    def rows(self) -> List[Tuple[float, float, float, bool]]:
        """(freq, speedup, normalized energy, on_pareto_front) records."""
        sp = self.result.speedups()
        ne = self.result.normalized_energies()
        return [
            (float(f), float(s), float(e), self.front.contains_freq(float(f)))
            for f, s, e in zip(self.result.freqs_mhz, sp, ne)
        ]


def characterization_series(
    app: Application,
    device: SynergyDevice,
    freqs_mhz: Optional[Sequence[float]] = None,
    repetitions: int = 5,
) -> CharacterizationSeries:
    """Figs 1-5/10: characterize and extract the Pareto front."""
    result = characterize(app, device, freqs_mhz=freqs_mhz, repetitions=repetitions)
    return CharacterizationSeries(result=result, front=true_front(result))


@dataclass(frozen=True)
class RawScalingPoint:
    """One (frequency, raw time, raw energy) point of Figs 6-9."""

    atoms: int
    fragments: int
    freq_mhz: float
    time_s: float
    energy_kj: float


def ligen_raw_scaling(
    device: SynergyDevice,
    n_ligands: int,
    atom_counts: Sequence[int],
    fragment_counts: Sequence[int],
    freqs_mhz: Optional[Sequence[float]] = None,
    repetitions: int = 5,
) -> List[RawScalingPoint]:
    """Figs 6-9: raw energy-vs-time curves while scaling atoms/fragments.

    The paper plots raw (not normalized) values here to keep the curves
    separable as the input grows; energies are reported in kJ to match
    the figures' axes.
    """
    points: List[RawScalingPoint] = []
    for atoms in atom_counts:
        for fragments in fragment_counts:
            app = LigenApplication(
                n_ligands=n_ligands, n_atoms=atoms, n_fragments=fragments
            )
            result = characterize(app, device, freqs_mhz=freqs_mhz, repetitions=repetitions)
            for s in result.samples:
                points.append(
                    RawScalingPoint(
                        atoms=atoms,
                        fragments=fragments,
                        freq_mhz=s.freq_mhz,
                        time_s=s.time_s,
                        energy_kj=s.energy_j / 1000.0,
                    )
                )
    return points


@dataclass
class ParetoPredictionSeries:
    """Fig 14: true front plus the two models' predicted-and-achieved sets."""

    true_front: ParetoFront
    gp_assessment: ParetoAssessment
    ds_assessment: ParetoAssessment

    def summary(self) -> Dict[str, float]:
        """Headline comparison numbers (counts, coverage, distance)."""
        return {
            "true_front_size": float(len(self.true_front)),
            "gp_predicted": float(self.gp_assessment.n_predicted),
            "ds_predicted": float(self.ds_assessment.n_predicted),
            "gp_exact_matches": float(self.gp_assessment.exact_matches),
            "ds_exact_matches": float(self.ds_assessment.exact_matches),
            "gp_distance": self.gp_assessment.distance_to_front,
            "ds_distance": self.ds_assessment.distance_to_front,
            "gp_max_speedup": self.gp_assessment.max_predicted_speedup,
            "ds_max_speedup": self.ds_assessment.max_predicted_speedup,
        }


def pareto_prediction_series(
    measured: CharacterizationResult,
    gp_prediction: TradeoffPrediction,
    ds_prediction: TradeoffPrediction,
) -> ParetoPredictionSeries:
    """Fig 14: assess both models' Pareto predictions on one workload."""
    return ParetoPredictionSeries(
        true_front=true_front(measured),
        gp_assessment=assess_pareto_prediction(gp_prediction, measured),
        ds_assessment=assess_pareto_prediction(ds_prediction, measured),
    )
