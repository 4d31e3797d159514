"""User-provided conservation laws (paper §1/§6).

Cronos "was developed so that it could easily adapt to the various
problems investigated in the field of astrophysical modeling. In
addition, the code also allows the solver to be used for other
conservation laws that can be provided by the user." This module
reproduces that extensibility: a :class:`ConservationLaw` supplies the
physical flux and signal speed, and :class:`GenericSolver` reuses the
same minmod/HLL/SSP-RK3 machinery as the MHD solver for any such law.

Included laws:

- :class:`LinearAdvectionLaw` — ``u_t + a . grad(u) = 0`` (exactness and
  convergence testing);
- :class:`BurgersLaw` — ``u_t + div(u^2/2 (1,1,1)) = 0`` (nonlinear,
  shock-forming);
- the built-in ideal-MHD system remains the specialised fast path in
  :mod:`repro.cronos.stencil`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.cronos.grid import NGHOST, Grid3D
from repro.errors import ConfigurationError
from repro.utils.validation import check_in_range, check_positive

__all__ = ["ConservationLaw", "LinearAdvectionLaw", "BurgersLaw", "GenericSolver"]

_AXIS_OF_DIRECTION = {0: 3, 1: 2, 2: 1}


class ConservationLaw(ABC):
    """A hyperbolic conservation law ``u_t + div F(u) = 0``.

    Implementations provide the flux along each direction and the maximum
    signal speed; everything is vectorized over trailing grid shapes with
    the component axis first.
    """

    @property
    @abstractmethod
    def n_components(self) -> int:
        """Number of conserved components."""

    @abstractmethod
    def flux(self, u: np.ndarray, direction: int) -> np.ndarray:
        """Physical flux ``F(u)`` along ``direction`` (0=x, 1=y, 2=z)."""

    @abstractmethod
    def max_signal_speed(self, u: np.ndarray, direction: int) -> np.ndarray:
        """Largest characteristic speed magnitude along ``direction``."""


class LinearAdvectionLaw(ConservationLaw):
    """Scalar advection with constant velocity ``a``."""

    def __init__(self, velocity: Tuple[float, float, float] = (1.0, 0.0, 0.0)) -> None:
        self.velocity = tuple(float(v) for v in velocity)
        if all(v == 0.0 for v in self.velocity):
            raise ConfigurationError("advection velocity must be non-zero")

    @property
    def n_components(self) -> int:
        return 1

    def flux(self, u: np.ndarray, direction: int) -> np.ndarray:
        return self.velocity[direction] * u

    def max_signal_speed(self, u: np.ndarray, direction: int) -> np.ndarray:
        return np.full(u.shape[1:], abs(self.velocity[direction]))


class BurgersLaw(ConservationLaw):
    """The 3-D scalar Burgers equation ``u_t + div(u^2/2 e) = 0``."""

    def __init__(self, directions: Tuple[float, float, float] = (1.0, 1.0, 1.0)) -> None:
        self.directions = tuple(float(d) for d in directions)

    @property
    def n_components(self) -> int:
        return 1

    def flux(self, u: np.ndarray, direction: int) -> np.ndarray:
        return 0.5 * self.directions[direction] * u * u

    def max_signal_speed(self, u: np.ndarray, direction: int) -> np.ndarray:
        return np.abs(self.directions[direction] * u[0])


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def _slice_axis(arr: np.ndarray, lo, hi, axis: int) -> np.ndarray:
    idx: list = [slice(None)] * arr.ndim
    idx[axis] = slice(lo, hi)
    return arr[tuple(idx)]


@dataclass
class GenericSolver:
    """Finite-volume integrator for any :class:`ConservationLaw`.

    Same numerical scheme as the MHD solver (minmod reconstruction, HLL
    with symmetric local Lax-Friedrichs wave-speed bounds, SSP-RK3),
    with periodic boundaries.
    """

    law: ConservationLaw
    grid: Grid3D
    u: np.ndarray = field(default=None)  # type: ignore[assignment]
    cfl_number: float = 0.4
    current_time: float = 0.0
    step_count: int = 0

    def __post_init__(self) -> None:
        check_in_range(self.cfl_number, "cfl_number", 0.0, 1.0, inclusive=False)
        expected = (self.law.n_components, *self.grid.padded_shape)
        if self.u is None:
            self.u = np.zeros(expected)
        elif self.u.shape != expected:
            raise ConfigurationError(
                f"state has shape {self.u.shape}, law/grid expect {expected}"
            )
        self.apply_periodic()

    @classmethod
    def from_interior(cls, law: ConservationLaw, grid: Grid3D, interior: np.ndarray, **kw):
        """Build a solver from interior data ``(n_components, nz, ny, nx)``."""
        solver = cls(law=law, grid=grid, **kw)
        solver.u[(slice(None), *grid.interior)] = interior
        solver.apply_periodic()
        return solver

    # ------------------------------------------------------------------
    def interior(self) -> np.ndarray:
        """View of the interior state."""
        return self.u[(slice(None), *self.grid.interior)]

    def apply_periodic(self) -> None:
        """Fill ghost layers with periodic wrap-around."""
        g = NGHOST
        for axis in (1, 2, 3):
            n = self.u.shape[axis] - 2 * g
            idx_lo: list = [slice(None)] * 4
            idx_lo[axis] = slice(0, g)
            idx_hi: list = [slice(None)] * 4
            idx_hi[axis] = slice(n + g, n + 2 * g)
            src_lo: list = [slice(None)] * 4
            src_lo[axis] = slice(n, n + g)
            src_hi: list = [slice(None)] * 4
            src_hi[axis] = slice(g, 2 * g)
            self.u[tuple(idx_lo)] = self.u[tuple(src_lo)]
            self.u[tuple(idx_hi)] = self.u[tuple(src_hi)]

    # ------------------------------------------------------------------
    def compute_changes(self) -> Tuple[np.ndarray, float]:
        """``L(u)`` over the interior plus the global CFL speed."""
        changes = np.zeros((self.law.n_components, *self.grid.shape))
        max_speed = 0.0
        for direction in range(3):
            axis = _AXIS_OF_DIRECTION[direction]
            spacing = (self.grid.dx, self.grid.dy, self.grid.dz)[direction]
            n = self.u.shape[axis] - 2 * NGHOST

            diff = _slice_axis(self.u, 1, None, axis) - _slice_axis(self.u, None, -1, axis)
            slope = _minmod(_slice_axis(diff, None, -1, axis), _slice_axis(diff, 1, None, axis))
            u_l = _slice_axis(self.u, 1, n + 2, axis) + 0.5 * _slice_axis(slope, 0, n + 1, axis)
            u_r = _slice_axis(self.u, 2, n + 3, axis) - 0.5 * _slice_axis(slope, 1, n + 2, axis)

            f_l = self.law.flux(u_l, direction)
            f_r = self.law.flux(u_r, direction)
            s = np.maximum(
                self.law.max_signal_speed(u_l, direction),
                self.law.max_signal_speed(u_r, direction),
            )
            # local Lax-Friedrichs (HLL with symmetric bounds)
            flux = 0.5 * (f_l + f_r) - 0.5 * s[None, ...] * (u_r - u_l)

            d_flux = _slice_axis(flux, 1, None, axis) - _slice_axis(flux, None, -1, axis)
            for a in (1, 2, 3):
                if a != axis:
                    d_flux = _slice_axis(d_flux, NGHOST, -NGHOST, a)
            changes -= d_flux / spacing

            interior_speed = self.law.max_signal_speed(self.interior(), direction)
            max_speed = max(max_speed, float(interior_speed.max()) / spacing)
        return changes, max_speed

    def step(self, dt: Optional[float] = None) -> float:
        """Advance one SSP-RK3 step; returns the dt used."""
        from repro.cronos.integrator import integrate_substep, n_substeps

        if dt is None:
            _, speed = self.compute_changes()
            if speed <= 0:
                raise ConfigurationError("static state: supply dt explicitly")
            dt = self.cfl_number / speed
        check_positive(dt, "dt")
        interior_sel = (slice(None), *self.grid.interior)
        u0 = self.u[interior_sel].copy()
        for substep in range(n_substeps()):
            changes, _ = self.compute_changes()
            self.u[interior_sel] = integrate_substep(
                u0, self.u[interior_sel], changes, dt, substep
            )
            self.apply_periodic()
        self.current_time += dt
        self.step_count += 1
        return dt

    def run(self, max_steps: int) -> None:
        """Advance ``max_steps`` steps."""
        for _ in range(int(max_steps)):
            self.step()

    def total(self) -> np.ndarray:
        """Per-component conserved totals over the interior."""
        vol = self.grid.dx * self.grid.dy * self.grid.dz
        return self.interior().reshape(self.law.n_components, -1).sum(axis=1) * vol
