"""Unit tests for the computeChanges stencil."""

import numpy as np

from repro.cronos.boundary import BoundaryKind, apply_boundary
from repro.cronos.grid import Grid3D
from repro.cronos.problems import uniform_advection
from repro.cronos.state import MHDState, RHO, conserved_from_primitive
from repro.cronos.stencil import compute_changes, minmod


class TestMinmod:
    def test_same_sign_takes_smaller(self):
        assert minmod(np.array([2.0]), np.array([3.0]))[0] == 2.0
        assert minmod(np.array([-3.0]), np.array([-1.0]))[0] == -1.0

    def test_opposite_signs_zero(self):
        assert minmod(np.array([2.0]), np.array([-1.0]))[0] == 0.0

    def test_zero_slope(self):
        assert minmod(np.array([0.0]), np.array([5.0]))[0] == 0.0

    def test_elementwise(self):
        a = np.array([1.0, -2.0, 3.0])
        b = np.array([2.0, -1.0, -3.0])
        out = minmod(a, b)
        assert np.allclose(out, [1.0, -1.0, 0.0])


class TestComputeChanges:
    def test_uniform_state_has_zero_changes(self):
        """A constant state is a steady solution: L(U) == 0."""
        g = Grid3D(8, 8, 8)
        prim = np.zeros((8, *g.shape))
        prim[0] = 1.0
        prim[1] = 0.5
        prim[4] = 1.0
        prim[5] = 0.3
        st = MHDState.zeros(g)
        st.u[(slice(None), *g.interior)] = conserved_from_primitive(prim, st.gamma)
        apply_boundary(st, BoundaryKind.PERIODIC)
        changes, cfl = compute_changes(st)
        assert np.allclose(changes, 0.0, atol=1e-12)
        assert np.all(cfl > 0)

    def test_output_shapes(self):
        g = Grid3D(6, 5, 4)
        st = uniform_advection(g)
        apply_boundary(st)
        changes, cfl = compute_changes(st)
        assert changes.shape == (8, *g.shape)
        assert cfl.shape == g.shape

    def test_mass_conservation_of_changes(self):
        """With periodic boundaries the flux differences telescope: the
        total change of every conserved quantity is zero."""
        g = Grid3D(8, 8, 8)
        st = uniform_advection(g, velocity=(0.9, -0.4, 0.2))
        apply_boundary(st)
        changes, _ = compute_changes(st)
        sums = changes.reshape(8, -1).sum(axis=1)
        scale = np.abs(changes).reshape(8, -1).sum(axis=1) + 1e-30
        assert np.all(np.abs(sums) / scale < 1e-10)

    def test_advection_direction(self):
        """A density bump advected in +x must grow downstream of the peak."""
        g = Grid3D(32, 1, 1)
        prim = np.zeros((8, *g.shape))
        x = (np.arange(g.nx) + 0.5) * g.dx
        prim[0] = (1.0 + 0.2 * np.exp(-((x - 0.5) ** 2) / 0.01))[None, None, :]
        prim[1] = 1.0
        prim[4] = 1.0
        st = MHDState.zeros(g)
        st.u[(slice(None), *g.interior)] = conserved_from_primitive(prim, st.gamma)
        apply_boundary(st)
        changes, _ = compute_changes(st)
        drho = changes[RHO][0, 0]
        peak = int(np.argmax(prim[0][0, 0]))
        assert drho[peak + 2] > 0  # filling downstream
        assert drho[peak - 2] < 0  # draining upstream

    def test_cfl_speed_reflects_velocity(self):
        g = Grid3D(8, 8, 8)
        slow = uniform_advection(g, velocity=(0.1, 0, 0))
        fast = uniform_advection(g, velocity=(3.0, 0, 0))
        apply_boundary(slow)
        apply_boundary(fast)
        _, cfl_slow = compute_changes(slow)
        _, cfl_fast = compute_changes(fast)
        assert cfl_fast.max() > cfl_slow.max()

    def test_13_point_stencil_locality(self):
        """Perturbing one cell must only change L(U) within 2 cells along
        each axis (the paper's 13-point neighbourhood)."""
        g = Grid3D(9, 9, 9)
        st = uniform_advection(g, velocity=(0.3, 0.3, 0.3), blob_amplitude=0.0)
        apply_boundary(st)
        base, _ = compute_changes(st)

        st2 = st.copy()
        c = 4 + 2  # center cell in padded coords
        st2.u[RHO, c, c, c] *= 1.01
        apply_boundary(st2, BoundaryKind.PERIODIC)
        pert, _ = compute_changes(st2)

        diff = np.abs(pert - base).max(axis=0)
        affected = np.argwhere(diff > 1e-14)
        center = np.array([4, 4, 4])
        for cell in affected:
            offset = np.abs(cell - center)
            assert np.all(offset <= 2), f"cell {cell} outside the stencil"
            # strictly, only on-axis neighbours within 2 are touched by a
            # dimension-split scheme at first order in the perturbation
            assert np.count_nonzero(offset) <= 1 or np.all(offset <= 2)
