"""Protein binding pocket with precomputed affinity maps.

Like production docking engines, the target protein is represented by a
regular 3-D grid of interaction potentials precomputed once per virtual
screening campaign (the protein is constant, paper §3.2). The potential
combines a Lennard-Jones-like steric term from pseudo protein atoms lining
a spherical pocket with a smooth attractive well at the pocket center;
ligand scoring samples it by trilinear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["ProteinPocket", "make_pocket"]

#: Penalty applied to atom positions outside the map (strongly unfavourable).
OUTSIDE_PENALTY = 50.0


@dataclass
class ProteinPocket:
    """A cubic affinity map centred on the binding site.

    Attributes
    ----------
    potential:
        ``(n, n, n)`` grid of interaction energies (lower = more
        favourable), indexed (z, y, x).
    origin:
        Physical coordinate of grid node (0, 0, 0).
    spacing:
        Grid spacing (uniform, cubic).
    center:
        Pocket centre in physical coordinates.
    """

    potential: np.ndarray
    origin: np.ndarray
    spacing: float
    center: np.ndarray

    def __post_init__(self) -> None:
        self.potential = np.asarray(self.potential, dtype=float)
        self.origin = np.asarray(self.origin, dtype=float)
        self.center = np.asarray(self.center, dtype=float)
        if self.potential.ndim != 3:
            raise ValueError("potential must be a 3-D grid")
        check_positive(self.spacing, "spacing")

    @property
    def extent(self) -> float:
        """Physical edge length of the map."""
        return self.spacing * (self.potential.shape[0] - 1)

    def sample(self, coords: np.ndarray) -> np.ndarray:
        """Trilinear interpolation of the potential at ``coords`` (n, 3).

        Positions outside the map receive :data:`OUTSIDE_PENALTY`.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(f"coords must be (n, 3), got {coords.shape}")
        # Physical -> fractional grid coordinates; grid axes are (z, y, x).
        frac = (coords[:, ::-1] - self.origin[::-1]) / self.spacing
        n = self.potential.shape[0]
        inside = np.all((frac >= 0.0) & (frac <= n - 1), axis=1)
        out = np.full(coords.shape[0], OUTSIDE_PENALTY)
        if not inside.any():
            return out
        f = frac[inside]
        i0 = np.clip(np.floor(f).astype(int), 0, n - 2)
        t = f - i0
        z0, y0, x0 = i0[:, 0], i0[:, 1], i0[:, 2]
        tz, ty, tx = t[:, 0], t[:, 1], t[:, 2]
        p = self.potential
        c000 = p[z0, y0, x0]
        c001 = p[z0, y0, x0 + 1]
        c010 = p[z0, y0 + 1, x0]
        c011 = p[z0, y0 + 1, x0 + 1]
        c100 = p[z0 + 1, y0, x0]
        c101 = p[z0 + 1, y0, x0 + 1]
        c110 = p[z0 + 1, y0 + 1, x0]
        c111 = p[z0 + 1, y0 + 1, x0 + 1]
        c00 = c000 * (1 - tx) + c001 * tx
        c01 = c010 * (1 - tx) + c011 * tx
        c10 = c100 * (1 - tx) + c101 * tx
        c11 = c110 * (1 - tx) + c111 * tx
        c0 = c00 * (1 - ty) + c01 * ty
        c1 = c10 * (1 - ty) + c11 * ty
        out[inside] = c0 * (1 - tz) + c1 * tz
        return out


def make_pocket(
    grid_points: int = 33,
    extent: float = 24.0,
    n_protein_atoms: int = 60,
    pocket_radius: float = 7.0,
    well_depth: float = 1.2,
    seed: RandomState = None,
) -> ProteinPocket:
    """Build a synthetic pocket: steric shell + attractive interior well.

    Pseudo protein atoms are scattered on a spherical shell of radius
    ``pocket_radius`` around the map centre; each contributes a truncated
    ``r^-12 - r^-6`` potential. A Gaussian well of depth ``well_depth`` at
    the centre makes deep placement favourable, giving the docking search
    a meaningful optimum.
    """
    grid_points = check_positive_int(grid_points, "grid_points")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    check_positive(extent, "extent")
    check_positive(pocket_radius, "pocket_radius")
    rng = as_generator(seed)

    spacing = extent / (grid_points - 1)
    origin = np.zeros(3)
    center = np.full(3, extent / 2.0)

    # Shell atoms.
    directions = rng.normal(size=(n_protein_atoms, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii_jitter = rng.uniform(0.9, 1.15, size=n_protein_atoms)
    atoms = center + directions * (pocket_radius * radii_jitter)[:, None]

    axis = np.arange(grid_points) * spacing
    zg, yg, xg = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([xg, yg, zg], axis=-1)  # physical (x, y, z) per node

    potential = np.zeros((grid_points,) * 3)
    sigma = 1.7
    for atom in atoms:
        r = np.linalg.norm(pts - atom, axis=-1)
        r = np.maximum(r, 0.6 * sigma)
        sr6 = (sigma / r) ** 6
        potential += np.minimum(4.0 * (sr6**2 - sr6), 10.0)

    r_c = np.linalg.norm(pts - center, axis=-1)
    potential -= well_depth * np.exp(-(r_c**2) / (2.0 * (0.5 * pocket_radius) ** 2))

    return ProteinPocket(potential=potential, origin=origin, spacing=spacing, center=center)
