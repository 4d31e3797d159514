"""Ligand representation: atoms, rotatable fragments, rigid transforms.

A ligand is a set of 3-D atom positions with per-atom van-der-Waals radii
and partial charges, plus a list of *fragments*. As in the paper (§3.2),
each rotamer — a rotatable bond — splits the atoms into two disjoint sets
that can rotate independently around the bond axis; we store the moving
set together with the two axis atoms. The number of fragments is the
paper's ``f`` input feature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Fragment", "Ligand", "rotation_matrix", "rotate_about_axis"]


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for a (non-zero) axis and angle (radians)."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ValueError("rotation axis must be non-zero")
    x, y, z = axis / norm
    c, s = np.cos(angle), np.sin(angle)
    cc = 1.0 - c
    return np.array(
        [
            [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
            [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
            [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
        ]
    )


def rotate_about_axis(
    coords: np.ndarray, origin: np.ndarray, axis: np.ndarray, angle: float
) -> np.ndarray:
    """Rotate ``coords`` (n, 3) by ``angle`` around the line through
    ``origin`` with direction ``axis``."""
    rot = rotation_matrix(axis, angle)
    return (coords - origin) @ rot.T + origin


@dataclass(frozen=True)
class Fragment:
    """One rotatable group: the moving atom set and its bond axis.

    Attributes
    ----------
    atom_indices:
        Indices of the atoms that move when this fragment rotates.
    axis_start, axis_end:
        Atom indices defining the rotation axis (the rotamer bond); both
        must be outside ``atom_indices``.
    """

    atom_indices: np.ndarray
    axis_start: int
    axis_end: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.atom_indices, dtype=np.int64)
        object.__setattr__(self, "atom_indices", idx)
        if idx.size == 0:
            raise ConfigurationError("fragment must move at least one atom")
        if self.axis_start == self.axis_end:
            raise ConfigurationError("fragment axis must join two distinct atoms")
        if self.axis_start in idx or self.axis_end in idx:
            raise ConfigurationError("axis atoms must not belong to the moving set")


@dataclass
class Ligand:
    """A small molecule: coordinates, radii, charges, and fragments."""

    coords: np.ndarray  # (n_atoms, 3)
    radii: np.ndarray  # (n_atoms,)
    charges: np.ndarray  # (n_atoms,)
    fragments: List[Fragment] = field(default_factory=list)
    name: str = "ligand"

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float)
        self.radii = np.asarray(self.radii, dtype=float)
        self.charges = np.asarray(self.charges, dtype=float)
        n = self.coords.shape[0]
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ConfigurationError(f"coords must be (n, 3), got {self.coords.shape}")
        if n == 0:
            raise ConfigurationError("ligand must have at least one atom")
        if self.radii.shape != (n,) or self.charges.shape != (n,):
            raise ConfigurationError("radii and charges must have one entry per atom")
        if np.any(self.radii <= 0):
            raise ConfigurationError("atom radii must be positive")
        for frag in self.fragments:
            hi = max(int(frag.atom_indices.max()), frag.axis_start, frag.axis_end)
            if hi >= n or frag.axis_start < 0 or frag.axis_end < 0:
                raise ConfigurationError("fragment references atoms outside the ligand")

    # ------------------------------------------------------------------
    @property
    def n_atoms(self) -> int:
        """Atom count (the paper's ``a`` feature)."""
        return int(self.coords.shape[0])

    @property
    def n_fragments(self) -> int:
        """Fragment count (the paper's ``f`` feature)."""
        return len(self.fragments)

    def centroid(self) -> np.ndarray:
        """Mean atom position."""
        return self.coords.mean(axis=0)

    def radius_of_gyration(self) -> float:
        """RMS distance of atoms from the centroid."""
        d = self.coords - self.centroid()
        return float(np.sqrt((d**2).sum(axis=1).mean()))

    def copy(self) -> "Ligand":
        """Deep copy (fragments are immutable and shared)."""
        return Ligand(
            coords=self.coords.copy(),
            radii=self.radii.copy(),
            charges=self.charges.copy(),
            fragments=list(self.fragments),
            name=self.name,
        )

    # -- rigid-body and torsional moves ---------------------------------
    def translated(self, offset: np.ndarray) -> "Ligand":
        """New ligand shifted by ``offset``."""
        out = self.copy()
        out.coords = out.coords + np.asarray(offset, dtype=float)
        return out

    def rotated(self, rot: np.ndarray, about: np.ndarray | None = None) -> "Ligand":
        """New ligand rotated by matrix ``rot`` about ``about`` (default centroid)."""
        pivot = self.centroid() if about is None else np.asarray(about, dtype=float)
        out = self.copy()
        out.coords = (out.coords - pivot) @ np.asarray(rot, dtype=float).T + pivot
        return out

    def rotate_fragment(self, fragment_index: int, angle: float) -> "Ligand":
        """New ligand with one fragment rotated around its bond axis.

        Bond lengths between non-fragment atoms are untouched — the move
        changes the molecule's shape without altering its topology, which
        is exactly the paper's description of a rotamer.
        """
        if not 0 <= fragment_index < len(self.fragments):
            raise ConfigurationError(f"no fragment {fragment_index}")
        frag = self.fragments[fragment_index]
        origin = self.coords[frag.axis_start]
        axis = self.coords[frag.axis_end] - origin
        out = self.copy()
        out.coords[frag.atom_indices] = rotate_about_axis(
            self.coords[frag.atom_indices], origin, axis, angle
        )
        return out

    def bounding_radius(self) -> float:
        """Max distance of any atom from the centroid plus its radius."""
        d = np.linalg.norm(self.coords - self.centroid(), axis=1)
        return float((d + self.radii).max())
