"""Unit tests for the LiGen GPU cost model and workload app."""

import pytest

from repro.hw import RooflineTimingModel, create_device, make_v100_spec
from repro.ligen.app import LIGEN_FEATURE_NAMES, LigenApplication
from repro.ligen.docking import DockingParams
from repro.ligen.gpu_costs import all_specs, screening_launches


class TestScreeningLaunches:
    def test_one_batch_two_kernels(self):
        launches = screening_launches(1000, 31, 4)
        assert [l.spec.name for l in launches] == ["ligen_dock", "ligen_score"]

    def test_dock_threads_are_atom_pairs(self):
        launches = screening_launches(1000, 31, 4)
        assert launches[0].threads == (1000 * 31 + 1) // 2

    def test_dock_work_scales_with_fragments(self):
        l4 = screening_launches(100, 31, 4)[0]
        l20 = screening_launches(100, 31, 20)[0]
        assert l20.work_iterations / l4.work_iterations == pytest.approx(5.0)

    def test_score_threads_use_max_poses(self):
        p = DockingParams.production()
        launches = screening_launches(100, 31, 4, params=p)
        assert launches[1].threads == 100 * p.max_num_poses
        assert launches[1].work_iterations == pytest.approx(31.0)

    def test_batching(self):
        launches = screening_launches(1000, 31, 4, batch_size=300)
        assert len(launches) == 2 * 4  # ceil(1000/300) = 4 batches
        dock_threads = [l.threads for l in launches if l.spec.name == "ligen_dock"]
        assert dock_threads[-1] == (100 * 31 + 1) // 2  # remainder batch

    def test_two_static_specs(self):
        assert len(all_specs()) == 2

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            screening_launches(0, 31, 4)


class TestRooflinePlacement:
    def test_dock_compute_bound_at_scale(self):
        """LiGen is compute-bound at full occupancy — the premise of its
        DVFS profile (paper Fig 1a/10b)."""
        model = RooflineTimingModel(make_v100_spec())
        launch = screening_launches(10000, 89, 20)[0]
        t = model.time(launch, 1282.0)
        assert t.regime == "compute"

    def test_dock_compute_bound_even_tiny(self):
        """Even a 2-ligand batch gains speedup from over-clocking
        (paper Fig 2a) because the per-thread chain is arithmetic."""
        model = RooflineTimingModel(make_v100_spec())
        launch = screening_launches(2, 89, 8)[0]
        lo = model.time(launch, 700.0)
        hi = model.time(launch, 1400.0)
        assert lo.exec_s / hi.exec_s > 1.5

    def test_absolute_scale_matches_fig6(self):
        """100000 ligands x 89 atoms x 20 fragments takes ~10 s and ~2 kJ
        at the default clock on the V100 (paper Fig 6b axes)."""
        gpu = create_device("v100")
        LigenApplication(100000, 89, 20).run(gpu)
        assert 5.0 < gpu.time_counter_s < 20.0
        assert 1000.0 < gpu.energy_counter_j < 3000.0


class TestLigenApplication:
    def test_feature_names_match_paper_table2(self):
        assert LIGEN_FEATURE_NAMES == ("f_ligands", "f_fragments", "f_atoms")

    def test_domain_features_order(self):
        app = LigenApplication(1000, 89, 20)
        assert app.domain_features == (1000.0, 20.0, 89.0)

    def test_name(self):
        assert LigenApplication(2, 89, 8).name == "ligen-2l-89a-8f"

    def test_run_emits_launches(self, v100):
        LigenApplication(100, 31, 4).run(v100)
        assert v100.launch_count == 2

    def test_monotone_in_each_input(self, v100):
        """Paper Figs 6-9: time and energy increase with ligands, atoms
        and fragments."""

        def cost(l, a, f):
            gpu = create_device("v100")
            LigenApplication(l, a, f).run(gpu)
            return gpu.time_counter_s, gpu.energy_counter_j

        base = cost(1000, 31, 4)
        more_l = cost(2000, 31, 4)
        more_a = cost(1000, 63, 4)
        more_f = cost(1000, 31, 8)
        for heavier in (more_l, more_a, more_f):
            assert heavier[0] > base[0]
            assert heavier[1] > base[1]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LigenApplication(0, 31, 4)
