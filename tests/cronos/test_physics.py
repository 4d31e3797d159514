"""Unit tests for the MHD flux physics and HLL solver."""

import numpy as np
import pytest

from repro.cronos.physics import fast_speed, hll_flux, max_signal_speed, mhd_flux

GAMMA = 5.0 / 3.0


def uniform_prim(rho=1.0, v=(0.0, 0.0, 0.0), p=1.0, b=(0.0, 0.0, 0.0), shape=(2, 2, 2)):
    prim = np.zeros((8, *shape))
    prim[0] = rho
    prim[1], prim[2], prim[3] = v
    prim[4] = p
    prim[5], prim[6], prim[7] = b
    return prim


class TestFluxes:
    def test_static_hydro_flux_is_pressure_only(self):
        prim = uniform_prim(p=2.5)
        f = mhd_flux(prim, GAMMA, 0)
        assert np.allclose(f[0], 0.0)  # no mass flux
        assert np.allclose(f[1], 2.5)  # momentum flux = p
        assert np.allclose(f[4], 0.0)  # no energy flux

    def test_mass_flux_is_momentum(self):
        prim = uniform_prim(rho=2.0, v=(3.0, 0, 0))
        f = mhd_flux(prim, GAMMA, 0)
        assert np.allclose(f[0], 6.0)

    def test_magnetic_pressure_in_momentum_flux(self):
        prim = uniform_prim(p=1.0, b=(0.0, 2.0, 0.0))
        f = mhd_flux(prim, GAMMA, 0)
        # p_tot = p + B^2/2 = 1 + 2; Bx = 0 so no tension term
        assert np.allclose(f[1], 3.0)

    def test_normal_field_flux_zero(self):
        prim = uniform_prim(v=(1.0, 2.0, 3.0), b=(0.5, 0.6, 0.7))
        for direction, b_idx in ((0, 5), (1, 6), (2, 7)):
            f = mhd_flux(prim, GAMMA, direction)
            assert np.allclose(f[b_idx], 0.0)

    def test_direction_symmetry(self):
        """Rotating the state must rotate the flux."""
        prim_x = uniform_prim(rho=1.3, v=(0.7, 0.2, -0.1), p=0.8, b=(0.3, 0.1, -0.2))
        f_x = mhd_flux(prim_x, GAMMA, 0)
        # rotate (x,y,z) -> (y,z,x): direction 1 with permuted components
        prim_y = uniform_prim(rho=1.3, v=(-0.1, 0.7, 0.2), p=0.8, b=(-0.2, 0.3, 0.1))
        f_y = mhd_flux(prim_y, GAMMA, 1)
        assert np.allclose(f_x[0], f_y[0])  # mass flux invariant
        assert np.allclose(f_x[4], f_y[4])  # energy flux invariant
        assert np.allclose(f_x[1], f_y[2])  # normal momentum component

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            mhd_flux(uniform_prim(), GAMMA, 3)


class TestWaveSpeeds:
    def test_hydro_limit_is_sound_speed(self):
        prim = uniform_prim(rho=1.0, p=1.0)
        cf = fast_speed(prim, GAMMA, 0)
        assert np.allclose(cf, np.sqrt(GAMMA))

    def test_perpendicular_field_fast_speed(self):
        """B perpendicular to propagation: cf^2 = a^2 + b^2."""
        prim = uniform_prim(rho=1.0, p=1.0, b=(0.0, 1.0, 0.0))
        cf = fast_speed(prim, GAMMA, 0)
        assert np.allclose(cf, np.sqrt(GAMMA + 1.0))

    def test_parallel_field_fast_speed_is_max_of_sound_alfven(self):
        prim = uniform_prim(rho=1.0, p=1.0, b=(3.0, 0.0, 0.0))
        cf = fast_speed(prim, GAMMA, 0)
        assert np.allclose(cf, 3.0)  # Alfven speed dominates

    def test_faster_than_sound_with_field(self):
        prim = uniform_prim(b=(0.5, 0.5, 0.5))
        assert np.all(fast_speed(prim, GAMMA, 0) >= np.sqrt(GAMMA))

    def test_signal_speed_includes_advection(self):
        prim = uniform_prim(v=(2.0, 0, 0))
        s = max_signal_speed(prim, GAMMA, 0)
        assert np.allclose(s, 2.0 + np.sqrt(GAMMA))


class TestHLL:
    def test_consistency_with_identical_states(self):
        """HLL(U, U) must equal the physical flux F(U)."""
        prim = uniform_prim(rho=1.2, v=(0.4, -0.2, 0.1), p=0.9, b=(0.2, -0.3, 0.1))
        f = hll_flux(prim, prim, GAMMA, 0)
        assert np.allclose(f, mhd_flux(prim, GAMMA, 0), atol=1e-12)

    def test_supersonic_right_moving_upwinds_left(self):
        prim_l = uniform_prim(rho=1.0, v=(5.0, 0, 0), p=1.0)
        prim_r = uniform_prim(rho=0.5, v=(5.0, 0, 0), p=0.5)
        f = hll_flux(prim_l, prim_r, GAMMA, 0)
        assert np.allclose(f, mhd_flux(prim_l, GAMMA, 0), atol=1e-12)

    def test_supersonic_left_moving_upwinds_right(self):
        prim_l = uniform_prim(rho=1.0, v=(-5.0, 0, 0), p=1.0)
        prim_r = uniform_prim(rho=0.5, v=(-5.0, 0, 0), p=0.5)
        f = hll_flux(prim_l, prim_r, GAMMA, 0)
        assert np.allclose(f, mhd_flux(prim_r, GAMMA, 0), atol=1e-12)

    def test_symmetric_states_give_zero_mass_flux(self):
        prim_l = uniform_prim(rho=1.0, v=(0.3, 0, 0), p=1.0)
        prim_r = uniform_prim(rho=1.0, v=(-0.3, 0, 0), p=1.0)
        f = hll_flux(prim_l, prim_r, GAMMA, 0)
        assert np.allclose(f[0], 0.0, atol=1e-12)

    def test_degenerate_static_identical(self):
        prim = uniform_prim(rho=1.0, p=1.0)
        f = hll_flux(prim, prim, GAMMA, 0)
        assert np.all(np.isfinite(f))
