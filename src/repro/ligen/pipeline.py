"""The virtual-screening pipeline: dock & score a library, rank it.

The platform's goal (paper §3.2) is ranking a chemical library by
ligand-protein interaction strength. Every ligand-protein evaluation is
independent ("embarrassingly parallel"); when a simulated GPU is
attached, the pipeline issues the corresponding batched kernel launches
through the same cost model the characterization workload uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.device import SimulatedGPU
from repro.ligen.docking import DockingParams, DockingResult, dock_ligand
from repro.ligen.gpu_costs import screening_launches
from repro.ligen.molecule import Ligand
from repro.ligen.protein import ProteinPocket
from repro.utils.rng import RandomState, as_generator, spawn_child

__all__ = ["RankedLigand", "ScreeningReport", "VirtualScreen"]


@dataclass(frozen=True)
class RankedLigand:
    """One library entry with its docking outcome."""

    name: str
    score: float
    result: DockingResult


@dataclass
class ScreeningReport:
    """Ranked screening outcome (descending score = best candidates first)."""

    ranked: List[RankedLigand]

    @property
    def best(self) -> RankedLigand:
        """The top-ranked candidate."""
        if not self.ranked:
            raise ConfigurationError("screening produced no results")
        return self.ranked[0]

    def scores(self) -> np.ndarray:
        """All scores in rank order."""
        return np.array([r.score for r in self.ranked])

    def top(self, k: int) -> List[RankedLigand]:
        """The ``k`` best candidates."""
        return self.ranked[: max(0, int(k))]


class VirtualScreen:
    """Screens ligand libraries against one protein pocket.

    Parameters
    ----------
    pocket:
        The (campaign-constant) target.
    params:
        Docking search budget, shared by the engine and the GPU cost model
        so host computation and simulated kernels describe the same work.
    device:
        Optional simulated GPU receiving the batched kernel launches.
    seed:
        Seed for the stochastic pose restarts.
    """

    def __init__(
        self,
        pocket: ProteinPocket,
        params: Optional[DockingParams] = None,
        device: Optional[SimulatedGPU] = None,
        seed: RandomState = None,
    ) -> None:
        self.pocket = pocket
        self.params = params or DockingParams()
        self.device = device
        self._rng = as_generator(seed)

    def screen(self, ligands: Sequence[Ligand]) -> ScreeningReport:
        """Dock and score every ligand; returns the ranked report."""
        if not ligands:
            raise ConfigurationError("cannot screen an empty library")
        self._emit_launches(ligands)
        results: List[RankedLigand] = []
        for i, ligand in enumerate(ligands):
            outcome = dock_ligand(
                ligand, self.pocket, self.params, seed=spawn_child(self._rng, i)
            )
            results.append(RankedLigand(name=ligand.name, score=outcome.score, result=outcome))
        results.sort(key=lambda r: r.score, reverse=True)
        return ScreeningReport(ranked=results)

    def _emit_launches(self, ligands: Sequence[Ligand]) -> None:
        if self.device is None:
            return
        # Batches are homogeneous in the controlled experiments; for mixed
        # libraries the cost model uses the mean ligand size, which is what
        # a batched kernel's occupancy sees.
        atoms = int(round(float(np.mean([l.n_atoms for l in ligands]))))
        frags = max(1, int(round(float(np.mean([l.n_fragments for l in ligands])))))
        launches = screening_launches(
            n_ligands=len(ligands),
            n_atoms=atoms,
            n_fragments=frags,
            params=self.params,
        )
        self.device.launch_many(launches)
