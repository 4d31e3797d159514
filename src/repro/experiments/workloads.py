"""The workload catalog: every application kind, declared once.

The paper keys each application's model on its input parameters
(Table 2): grid size for Cronos, ligands/atoms/fragments for LiGen. A
:class:`WorkloadKind` holds what the pipeline needs to know about one
kind: its feature names, how to build its apps from spec-style params
(``ligand_counts``/``atom_counts``/``fragment_counts``, or
``grids``/``steps``), its paper (§5.1) and quick grids, and whether it
has a memory-clock axis. Campaign specs, ``repro run/campaign/train/
characterize``, the lifecycle loop and the fleet's registry-less model
all read :data:`WORKLOADS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.cronos.app import CRONOS_FEATURE_NAMES, CronosApplication
from repro.errors import SpecError
from repro.experiments import configs
from repro.ligen.app import LIGEN_FEATURE_NAMES, LigenApplication
from repro.mhd.app import MHD_FEATURE_NAMES, MhdApplication
from repro.synergy.runner import Application

__all__ = ["APP_KINDS", "WORKLOADS", "WorkloadKind", "workload_kind"]

Params = Mapping[str, Any]


@dataclass(frozen=True)
class WorkloadKind:
    """One application kind: feature names, app builder, grids, memory axis."""

    name: str
    feature_names: Tuple[str, ...]
    #: Builds the ordered app list from the params of ``paper_params``.
    build: Callable[..., List[Application]]
    paper_params: Params
    quick_params: Params
    #: Whether campaigns may also sweep the memory clock (2-D DVFS).
    memory_axis: bool = False

    @property
    def param_names(self) -> Tuple[str, ...]:
        """The spec-style params this kind's apps are built from."""
        return tuple(self.paper_params)

    def apps(self, params: Optional[Params] = None) -> List[Application]:
        """The apps for ``params`` (``None``: the paper grid).

        Keys that are not this kind's params are ignored, so one mapping
        can describe an input for every kind.
        """
        given = self.paper_params if params is None else params
        return self.build(**{name: given[name] for name in self.param_names})


def _ligen_apps(ligand_counts, atom_counts, fragment_counts) -> List[Application]:
    return [
        LigenApplication(n_ligands=ligands, n_atoms=atoms, n_fragments=fragments)
        for ligands in ligand_counts
        for atoms in atom_counts
        for fragments in fragment_counts
    ]


def _grid_apps(app_class) -> Callable[..., List[Application]]:
    """Builder for a kind whose inputs are ``grids`` of 3-D extents run ``steps``."""

    def build(grids, steps) -> List[Application]:
        return [app_class.from_size(*grid, n_steps=steps) for grid in grids]

    return build


#: Every application kind, by name.
WORKLOADS: Dict[str, WorkloadKind] = {
    kind.name: kind
    for kind in (
        WorkloadKind(
            name="ligen",
            feature_names=LIGEN_FEATURE_NAMES,
            build=_ligen_apps,
            paper_params=dict(
                ligand_counts=configs.LIGEN_LIGAND_COUNTS,
                atom_counts=configs.LIGEN_ATOM_COUNTS,
                fragment_counts=configs.LIGEN_FRAGMENT_COUNTS,
            ),
            quick_params=dict(
                ligand_counts=(2, 256, 10000), atom_counts=(31, 89), fragment_counts=(4, 20)
            ),
        ),
        WorkloadKind(
            name="cronos",
            feature_names=CRONOS_FEATURE_NAMES,
            build=_grid_apps(CronosApplication),
            paper_params=dict(grids=configs.CRONOS_GRID_SIZES, steps=configs.CRONOS_STEPS),
            quick_params=dict(grids=configs.CRONOS_GRID_SIZES[:3], steps=configs.CRONOS_STEPS),
        ),
        WorkloadKind(
            name="mhd",
            feature_names=MHD_FEATURE_NAMES,
            build=_grid_apps(MhdApplication),
            paper_params=dict(grids=configs.MHD_GRID_SIZES, steps=configs.MHD_STEPS),
            quick_params=dict(grids=configs.MHD_GRID_SIZES[:2], steps=configs.MHD_STEPS),
            memory_axis=True,
        ),
    )
}

#: Application kind names, in catalog order.
APP_KINDS: Tuple[str, ...] = tuple(WORKLOADS)


def workload_kind(name: str) -> WorkloadKind:
    """The catalog entry for ``name``; raises :class:`SpecError` if unknown."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SpecError(f"unknown application {name!r}; expected one of {APP_KINDS}") from None
