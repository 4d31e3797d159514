"""Unit tests for the Cronos GPU cost model and workload app."""

import pytest

from repro.cronos.app import CRONOS_FEATURE_NAMES, CronosApplication
from repro.cronos.gpu_costs import (
    all_specs,
    step_launches,
    substep_launches,
)
from repro.cronos.grid import Grid3D
from repro.cronos.problems import uniform_advection
from repro.cronos.solver import CronosSolver
from repro.hw import RooflineTimingModel, create_device, make_v100_spec


class TestLaunchStructure:
    def test_substep_has_four_kernels(self):
        launches = substep_launches(Grid3D(10, 4, 4))
        names = [l.spec.name for l in launches]
        assert names == [
            "cronos_compute_changes",
            "cronos_reduce_cfl",
            "cronos_integrate",
            "cronos_boundary",
        ]

    def test_step_is_three_substeps(self):
        assert len(step_launches(Grid3D(10, 4, 4))) == 12

    def test_cell_kernels_scale_with_grid(self):
        small = substep_launches(Grid3D(10, 4, 4))
        large = substep_launches(Grid3D(160, 64, 64))
        assert large[0].threads == 160 * 64 * 64
        assert small[0].threads == 160
        assert large[0].threads / small[0].threads == 4096

    def test_boundary_kernel_scales_with_surface(self):
        g1 = Grid3D(16, 16, 16)
        g2 = Grid3D(32, 32, 32)
        b1 = substep_launches(g1)[-1].threads
        b2 = substep_launches(g2)[-1].threads
        # surface grows ~4x when volume grows 8x
        assert 3.0 < b2 / b1 < 5.0

    def test_four_static_specs(self):
        assert len(all_specs()) == 4


class TestRooflinePlacement:
    def test_stencil_memory_leaning_on_v100(self):
        """The stencil must sit on the memory side of the roofline at the
        default clock for large grids — that is what produces the paper's
        Cronos DVFS profile."""
        model = RooflineTimingModel(make_v100_spec())
        launch = substep_launches(Grid3D(160, 64, 64))[0]
        t = model.time(launch, 1282.0)
        assert t.t_bw_s > t.t_comp_s

    def test_stencil_not_absurdly_memory_bound(self):
        """...but compute must matter below ~half the default clock
        (the measured crossover region)."""
        model = RooflineTimingModel(make_v100_spec())
        launch = substep_launches(Grid3D(160, 64, 64))[0]
        t = model.time(launch, 400.0)
        assert t.t_comp_s > t.t_bw_s


class TestCronosApplication:
    def test_feature_names_match_paper_table2(self):
        assert CRONOS_FEATURE_NAMES == ("f_grid_x", "f_grid_y", "f_grid_z")

    def test_domain_features(self):
        app = CronosApplication.from_size(160, 64, 32)
        assert app.domain_features == (160.0, 64.0, 32.0)

    def test_name_label(self):
        assert CronosApplication.from_size(10, 4, 4).name == "cronos-10x4x4"

    def test_run_issues_expected_launches(self, v100):
        app = CronosApplication.from_size(10, 4, 4, n_steps=3)
        app.run(v100)
        assert v100.launch_count == 1 + 3 * 12

    def test_replay_matches_real_solver(self):
        """The trace-replay app and the device-coupled solver must issue
        identical kernel sequences (the consistency guarantee)."""
        g = Grid3D(10, 4, 4)
        gpu_solver = create_device("v100")
        CronosSolver(uniform_advection(g), device=gpu_solver).run(max_steps=4)
        gpu_app = create_device("v100")
        CronosApplication(g, n_steps=4).run(gpu_app)
        assert gpu_solver.launch_count == gpu_app.launch_count
        assert gpu_solver.time_counter_s == pytest.approx(gpu_app.time_counter_s)
        assert gpu_solver.energy_counter_j == pytest.approx(gpu_app.energy_counter_j)

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            CronosApplication.from_size(4, 4, 4, n_steps=0)
