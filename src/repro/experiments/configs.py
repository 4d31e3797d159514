"""Workload configurations of the paper's experimental setup (§5.1).

Frequencies: the V100's 196 core bins (135-1597 MHz). Training sweeps may
subsample the table ("each (or a part) of the frequency configurations",
§4.2.2); :data:`DEFAULT_TRAIN_FREQ_COUNT` is the default subsample used
by the dataset builders, while figure-level characterizations sweep all
bins.

Inputs:

- Cronos — five grids from 10x4x4 to 160x64x64;
- LiGen — the tuple grid ``(l, a, f)``. §5.1 lists
  ``l in {2, 16, 1024, 4096, 10000}`` but Figure 13's validation inputs
  use ``l = 256`` (as does Figure 10's small input), so the library sweep
  includes 256 as well; likewise §5.1 lists 71 atoms while Figures 8-9
  label the same series 74 — we follow the setup text (71).
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "CRONOS_GRID_SIZES",
    "CRONOS_STEPS",
    "MHD_GRID_SIZES",
    "MHD_STEPS",
    "MHD_SMALL_GRID",
    "MHD_LARGE_GRID",
    "LIGEN_LIGAND_COUNTS",
    "LIGEN_ATOM_COUNTS",
    "LIGEN_FRAGMENT_COUNTS",
    "FIG13_LIGEN_VALIDATION",
    "FIG13_CRONOS_VALIDATION",
    "DEFAULT_TRAIN_FREQ_COUNT",
    "DEFAULT_REPETITIONS",
    "LIGEN_SMALL_INPUT",
    "LIGEN_LARGE_INPUT",
    "CRONOS_SMALL_GRID",
    "CRONOS_LARGE_GRID",
    "ligen_label",
    "cronos_label",
]

#: Cronos grid sweep (nx, ny, nz), §5.1.
CRONOS_GRID_SIZES: Tuple[Tuple[int, int, int], ...] = (
    (10, 4, 4),
    (20, 8, 8),
    (40, 16, 16),
    (80, 32, 32),
    (160, 64, 64),
)

#: Time steps per Cronos characterization run (fixed endTime equivalent).
CRONOS_STEPS = 25

#: MHD cylindrical grid sweep (nr, ntheta, nz): quarter-size to full
#: vessel resolution, ~5x cell growth per step like the Cronos ladder.
MHD_GRID_SIZES: Tuple[Tuple[int, int, int], ...] = (
    (6, 12, 8),
    (12, 24, 16),
    (24, 48, 32),
    (48, 96, 64),
)

#: Coupled time steps per MHD characterization run.
MHD_STEPS = 20

#: Small/large MHD grids for single-input figures and smoke runs.
MHD_SMALL_GRID: Tuple[int, int, int] = (6, 12, 8)
MHD_LARGE_GRID: Tuple[int, int, int] = (48, 96, 64)

#: LiGen input grid, §5.1 plus the l=256 value of Figs 10/13.
LIGEN_LIGAND_COUNTS: Tuple[int, ...] = (2, 16, 256, 1024, 4096, 10000)
LIGEN_ATOM_COUNTS: Tuple[int, ...] = (31, 63, 71, 89)
LIGEN_FRAGMENT_COUNTS: Tuple[int, ...] = (4, 8, 16, 20)

#: Figure 13c/13d validation inputs, in the paper's ``a x f x l`` label
#: order: (atoms, fragments, ligands).
FIG13_LIGEN_VALIDATION: Tuple[Tuple[int, int, int], ...] = tuple(
    (a, f, l) for a in (31, 89) for f in (4, 20) for l in (256, 4096, 10000)
)

#: Figure 13a/13b validation inputs: every Cronos grid.
FIG13_CRONOS_VALIDATION: Tuple[Tuple[int, int, int], ...] = CRONOS_GRID_SIZES

#: Default frequency-subsample size for model-training sweeps.
DEFAULT_TRAIN_FREQ_COUNT = 24

#: Paper measurement protocol: five repetitions per point.
DEFAULT_REPETITIONS = 5

#: Figure 10's small/large LiGen inputs (ligands, atoms, fragments).
LIGEN_SMALL_INPUT: Tuple[int, int, int] = (256, 31, 4)
LIGEN_LARGE_INPUT: Tuple[int, int, int] = (10000, 89, 20)

#: Figures 3-5's small/large Cronos grids.
CRONOS_SMALL_GRID: Tuple[int, int, int] = (10, 4, 4)
CRONOS_LARGE_GRID: Tuple[int, int, int] = (160, 64, 64)


def ligen_label(atoms: int, fragments: int, ligands: int) -> str:
    """Figure-13 style ``a x f x l`` label, e.g. ``"31x4x256"``."""
    return f"{atoms}x{fragments}x{ligands}"


def cronos_label(nx: int, ny: int, nz: int) -> str:
    """Grid label, e.g. ``"160x64x64"``."""
    return f"{nx}x{ny}x{nz}"
