"""Fleet engine semantics and the vectorized/reference bit-identity gate."""

import numpy as np
import pytest

from repro.errors import FleetError
from repro.fleet import (
    JOB_DONE,
    JOB_PENDING,
    JOB_QUEUED,
    JOB_RUNNING,
    FleetAdvisor,
    compare_to_static,
    diff_trajectories,
    simulate_fleet,
)
from repro.ml.forest import reference_mode
from repro.specs.fleet import FleetJobType

from tests.fleet.conftest import make_spec


class TestBitIdentity:
    def test_advised_with_faults_matches_reference_bitwise(self, tiny_model):
        spec = make_spec(gpu_failure_prob=0.05, repair_ticks=4, seed=3)
        vec = simulate_fleet(spec, tiny_model, mode="vectorized")
        ref = simulate_fleet(spec, tiny_model, mode="reference")
        assert diff_trajectories(vec, ref) == []
        # the gate must actually exercise the fault path
        assert vec.summary()["gpu_failures"] > 0

    def test_static_policy_matches_reference_bitwise(self, tiny_model):
        spec = make_spec(policy="static", static_freq_mhz=1000.0, seed=5)
        vec = simulate_fleet(spec, tiny_model, mode="vectorized")
        ref = simulate_fleet(spec, tiny_model, mode="reference")
        assert diff_trajectories(vec, ref) == []

    def test_summaries_agree_except_mode_label(self, tiny_model):
        spec = make_spec(seed=9)
        vec = simulate_fleet(spec, tiny_model, mode="vectorized").summary()
        ref = simulate_fleet(spec, tiny_model, mode="reference").summary()
        assert vec.pop("mode") == "vectorized"
        assert ref.pop("mode") == "reference"
        assert vec == ref

    @pytest.mark.parametrize(
        "job_types",
        [
            # every job of a tick shares its deadline
            (FleetJobType(name="only", features=(4.0,), deadline_s=8.0),),
            # a "short" job arriving 8 ticks after a "long" one ties with
            # it, so EDF must order ties across job ids that are not in
            # deadline order
            (
                FleetJobType(name="long", features=(4.0,), deadline_s=8.0),
                FleetJobType(name="short", features=(2.0,), deadline_s=4.0),
            ),
        ],
        ids=["one-type", "cross-tick-ties"],
    )
    @pytest.mark.parametrize(
        "policy, static_freq", [("advised", None), ("static", 1225.0)]
    )
    def test_loaded_fleet_with_tied_deadlines_matches_reference(
        self, tiny_model, job_types, policy, static_freq
    ):
        # Arrivals at 4x the GPU count per tick: the queue outgrows the fleet.
        spec = make_spec(
            job_types=job_types,
            arrival_rate_per_tick=16.0,
            arrival_horizon_ticks=20,
            gpu_failure_prob=0.05,
            repair_ticks=3,
            policy=policy,
            static_freq_mhz=static_freq,
            seed=29,
        )
        vec = simulate_fleet(spec, tiny_model, mode="vectorized")
        ref = simulate_fleet(spec, tiny_model, mode="reference")
        assert diff_trajectories(vec, ref) == []
        summary = vec.summary()
        assert summary["peak_queue"] > 20
        assert summary["gpu_failures"] > 0
        assert np.unique(vec.job_deadline_s).size * 4 < vec.n_jobs


class TestProfileTable:
    BATCH = [(1.0,), (4.0,), (1.0,), (2.5,), (4.0,)]

    def _assert_rows_equal_scalar(self, advisor, batch):
        times, energies = advisor.profiles(batch)
        assert times.shape == energies.shape == (len(batch), advisor.freqs_mhz.size)
        for i, features in enumerate(batch):
            prof = advisor.profile(features)
            assert times[i].tobytes() == prof.times_s.tobytes()
            assert energies[i].tobytes() == prof.energies_j.tobytes()
            # the reference engine's scalar path walks trees one by one
            with reference_mode():
                ref = advisor.profile(features)
            assert times[i].tobytes() == ref.times_s.tobytes()
            assert energies[i].tobytes() == ref.energies_j.tobytes()

    def test_rows_with_duplicates_equal_scalar_profiles_bitwise(self, tiny_model):
        advisor = FleetAdvisor(tiny_model, make_spec().freq_grid())
        self._assert_rows_equal_scalar(advisor, self.BATCH)

    def test_one_row_batch_equals_scalar_profile_bitwise(self, tiny_model):
        advisor = FleetAdvisor(tiny_model, make_spec().freq_grid())
        self._assert_rows_equal_scalar(advisor, [(3.0,)])


class TestDeterminism:
    def test_repeat_runs_are_bitwise_identical(self, tiny_model):
        spec = make_spec(gpu_failure_prob=0.02, seed=11)
        a = simulate_fleet(spec, tiny_model)
        b = simulate_fleet(spec, tiny_model)
        assert diff_trajectories(a, b) == []

    def test_seed_changes_the_workload(self, tiny_model):
        a = simulate_fleet(make_spec(seed=1), tiny_model)
        b = simulate_fleet(make_spec(seed=2), tiny_model)
        assert diff_trajectories(a, b) != []


class TestFailureSemantics:
    def test_failures_requeue_and_eventually_complete(self, tiny_model):
        spec = make_spec(
            gpus=3,
            ticks=80,
            arrival_rate_per_tick=0.5,
            arrival_horizon_ticks=30,
            gpu_failure_prob=0.05,
            repair_ticks=3,
            seed=7,
        )
        res = simulate_fleet(spec, tiny_model)
        s = res.summary()
        assert s["gpu_failures"] > 0
        assert int(np.sum(res.tick_down)) > 0
        # a restarted job keeps a single terminal state
        assert set(np.unique(res.job_status)) <= {
            JOB_PENDING, JOB_QUEUED, JOB_RUNNING, JOB_DONE,
        }
        done = res.job_status == JOB_DONE
        assert np.all(res.job_finish_s[done] >= res.job_start_s[done])

    def test_fault_free_fleet_sees_no_failures(self, tiny_model):
        res = simulate_fleet(make_spec(gpu_failure_prob=0.0), tiny_model)
        s = res.summary()
        assert s["gpu_failures"] == 0
        assert s["job_restarts"] == 0
        assert int(np.sum(res.tick_down)) == 0


class TestPolicySemantics:
    def test_hopeless_deadline_falls_back_to_fastest(self, tiny_model):
        spec = make_spec(
            job_types=(
                FleetJobType(name="late", features=(4.0,), deadline_s=0.001),
            ),
            arrival_rate_per_tick=0.5,
            seed=13,
        )
        res = simulate_fleet(spec, tiny_model)
        prof = tiny_model.predict_tradeoff([4.0], spec.freq_grid())
        fastest = int(np.argmin(prof.times_s))
        started = ~np.isnan(res.job_freq_mhz)
        assert started.any()
        assert np.all(res.job_freq_mhz[started] == spec.freq_grid()[fastest])
        assert np.all(res.job_work_s[started] == prof.times_s[fastest])

    def test_static_policy_pins_the_nearest_grid_clock(self, tiny_model):
        spec = make_spec(policy="static", static_freq_mhz=990.0, seed=17)
        res = simulate_fleet(spec, tiny_model)
        started = ~np.isnan(res.job_freq_mhz)
        assert started.any()
        # grid is (400, 675, 950, 1225, 1500); nearest to 990 is 950
        assert np.all(res.job_freq_mhz[started] == 950.0)

    def test_advised_saves_energy_at_equal_sla(self, tiny_model):
        spec = make_spec(
            gpus=6,
            ticks=60,
            arrival_rate_per_tick=0.4,
            arrival_horizon_ticks=20,
            job_types=(
                FleetJobType(name="small", features=(1.0,), deadline_s=12.0),
                FleetJobType(name="big", features=(4.0,), deadline_s=16.0),
            ),
            seed=19,
        )
        outcome = compare_to_static(spec, tiny_model)
        assert outcome["advised"]["sla_attainment"] == 1.0
        assert outcome["static"]["sla_attainment"] == 1.0
        assert outcome["sla_delta"] == 0.0
        assert outcome["energy_saved_j"] > 0.0
        # the baseline defaults to the top of the grid (race-to-idle)
        assert outcome["static_freq_mhz"] == spec.freq_max_mhz


class TestAccounting:
    def test_idle_fleet_charges_exactly_idle_power(self, tiny_model):
        spec = make_spec(arrival_rate_per_tick=0.0, gpus=3, ticks=20)
        res = simulate_fleet(spec, tiny_model)
        horizon_s = spec.ticks * spec.tick_s
        assert res.n_jobs == 0
        expected = spec.idle_power_w * horizon_s
        assert np.all(res.gpu_energy_j == expected)
        s = res.summary()
        assert s["sla_attainment"] == 1.0
        assert s["busy_fraction"] == 0.0

    def test_done_jobs_carry_energy_and_clock(self, tiny_model):
        res = simulate_fleet(make_spec(seed=23), tiny_model)
        done = res.job_status == JOB_DONE
        assert done.any()
        assert np.all(res.job_energy_j[done] > 0.0)
        assert np.all(~np.isnan(res.job_freq_mhz[done]))
        # completed work is charged to some GPU's busy span
        assert float(np.sum(res.gpu_busy_s)) > 0.0


class TestValidation:
    def test_unknown_mode_is_a_fleet_error(self, tiny_model):
        with pytest.raises(FleetError, match="mode"):
            simulate_fleet(make_spec(), tiny_model, mode="quantum")

    def test_feature_arity_mismatch_is_a_fleet_error(self, tiny_model):
        spec = make_spec(
            job_types=(
                FleetJobType(name="wide", features=(1.0, 2.0), deadline_s=5.0),
            ),
        )
        with pytest.raises(FleetError, match="feature"):
            simulate_fleet(spec, tiny_model)
