"""The ``computeChanges`` 13-point stencil (paper Algorithm 1, line 8).

Second-order finite-volume update: minmod-limited linear reconstruction
to faces, HLL fluxes, and flux differencing — requiring two neighbour
cells per direction per axis, i.e. the 13-point stencil the paper
describes. Also produces the per-cell CFL signal speed consumed by the
max-reduction (line 9).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.cronos.grid import NGHOST
from repro.cronos.state import (
    DENSITY_FLOOR,
    N_COMPONENTS,
    PRESSURE_FLOOR,
    MHDState,
    primitive_from_conserved,
)
from repro.cronos.physics import hll_flux, max_signal_speed

__all__ = ["minmod", "compute_changes"]

#: Array axis (in the 4-D component-first layout) for each flux direction.
_AXIS_OF_DIRECTION = {0: 3, 1: 2, 2: 1}


def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minmod slope limiter: 0 on sign change, else the smaller slope."""
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _slice_axis(arr: np.ndarray, lo: int | None, hi: int | None, axis: int) -> np.ndarray:
    idx: list = [slice(None)] * arr.ndim
    idx[axis] = slice(lo, hi)
    return arr[tuple(idx)]


def _floor_primitives(prim: np.ndarray) -> np.ndarray:
    """Clip reconstructed density/pressure to their positivity floors."""
    prim[0] = np.maximum(prim[0], DENSITY_FLOOR)
    prim[4] = np.maximum(prim[4], PRESSURE_FLOOR)
    return prim


def compute_changes(state: MHDState) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate ``L(U)`` and the per-cell CFL speed over the interior.

    Returns
    -------
    changes:
        ``dU/dt`` from flux differencing, shape ``(8, nz, ny, nx)``.
    cfl_speed:
        Per-cell ``max_axis (|v| + c_f) / dx_axis`` — the quantity whose
        global max fixes the stable time step, shape ``(nz, ny, nx)``.
    """
    grid = state.grid
    gamma = state.gamma
    prim = primitive_from_conserved(state.u, gamma)

    changes = np.zeros((N_COMPONENTS, *grid.shape))
    cfl_speed = np.zeros(grid.shape)
    interior = (slice(None), *grid.interior)
    prim_interior = prim[interior]

    for direction in range(3):
        axis = _AXIS_OF_DIRECTION[direction]
        spacing = (grid.dx, grid.dy, grid.dz)[direction]
        n = prim.shape[axis] - 2 * NGHOST

        # Limited slopes on cells 1 .. n+2 (padded indexing).
        diff = _slice_axis(prim, 1, None, axis) - _slice_axis(prim, None, -1, axis)
        slope = minmod(_slice_axis(diff, None, -1, axis), _slice_axis(diff, 1, None, axis))
        # slope[k] corresponds to padded cell k+1.

        # Face states for faces between padded cells i and i+1,
        # i = 1 .. n+1  (n+1 faces bracketing every interior cell).
        cell_l = _slice_axis(prim, 1, n + 2, axis)
        slope_l = _slice_axis(slope, 0, n + 1, axis)
        cell_r = _slice_axis(prim, 2, n + 3, axis)
        slope_r = _slice_axis(slope, 1, n + 2, axis)
        prim_face_l = _floor_primitives(cell_l + 0.5 * slope_l)
        prim_face_r = _floor_primitives(cell_r - 0.5 * slope_r)

        flux = hll_flux(prim_face_l, prim_face_r, gamma, direction)

        # dU = -(F_{i+1/2} - F_{i-1/2}) / dx over the interior; restrict the
        # two non-swept axes to the interior band.
        d_flux = _slice_axis(flux, 1, None, axis) - _slice_axis(flux, None, -1, axis)
        other_axes = [a for a in (1, 2, 3) if a != axis]
        for a in other_axes:
            d_flux = _slice_axis(d_flux, NGHOST, -NGHOST, a)
        changes -= d_flux / spacing

        cfl_speed = np.maximum(
            cfl_speed, max_signal_speed(prim_interior, gamma, direction) / spacing
        )

    return changes, cfl_speed
