"""Chaos tests: the campaign engine under deterministic fault injection.

Headline invariant: a campaign run under a *transient* fault plan with
retries enabled is bit-identical to the fault-free campaign — in serial
and replay measurement modes, inline and pooled — and cache corruption
is detected and self-healed, never served.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, WorkerCrashError
from repro.faults import FaultPlan, FaultSpec
from repro.faults.wrappers import FaultyResultCache
from repro.hw.specs import make_v100_spec
from repro.ligen.app import LigenApplication
from repro.runtime.cache import ResultCache
from repro.runtime.engine import (
    CampaignEngine,
    MeasurementTask,
    TaskOutcome,
    execute_task_resilient,
)

FREQS = [900.0, 1282.0]
REPS = 2

#: Probabilities tuned so every task sees faults but never exhausts the
#: retry budget used below (checked by the `quarantined == 0` asserts).
TRANSIENT_PLAN = FaultPlan(
    seed=13,
    specs=(
        FaultSpec(kind="launch_failure", probability=0.10),
        FaultSpec(kind="freq_rejection", probability=0.30),
        FaultSpec(kind="sensor_dropout", probability=0.15),
        FaultSpec(kind="worker_crash", probability=0.30),
    ),
)

#: The tracked plan CI's ``repro campaign --inject`` step runs. It is
#: gentler than TRANSIENT_PLAN: over three clocks, campaign seed 42 and a
#: retry budget of 6, faults fire and retries absorb every one.
INJECT_PLAN = FaultPlan.load(
    Path(__file__).resolve().parents[2] / "benchmarks" / "output" / "chaos_plan.json"
)
INJECT_FREQS = [900.0, 1135.0, 1282.0]


def app():
    return LigenApplication(n_ligands=16, n_atoms=31, n_fragments=4)


def sweep(engine, the_app=None):
    return engine.characterize(
        the_app or app(), make_v100_spec(), freqs_mhz=FREQS, repetitions=REPS
    )


def assert_identical(a, b):
    assert a is not None and b is not None
    assert a.baseline_time_s == b.baseline_time_s
    assert a.baseline_energy_j == b.baseline_energy_j
    assert len(a.samples) == len(b.samples)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.freq_mhz == sb.freq_mhz
        assert sa.time_s == sb.time_s
        assert sa.energy_j == sb.energy_j
        assert np.array_equal(sa.rep_times_s, sb.rep_times_s)
        assert np.array_equal(sa.rep_energies_j, sb.rep_energies_j)


@pytest.fixture(scope="module")
def fault_free():
    return sweep(CampaignEngine(jobs=1, campaign_seed=7))


class TestChaosEquivalence:
    """The headline invariant, across methods."""

    def test_serial_chaos_is_bit_identical(self, fault_free):
        engine = CampaignEngine(
            jobs=1, campaign_seed=7, method="serial", fault_plan=TRANSIENT_PLAN, max_retries=10
        )
        chaos = sweep(engine)
        assert engine.stats.faults_injected > 0
        assert engine.stats.quarantined == 0
        assert_identical(chaos, fault_free)

    def test_replay_chaos_is_bit_identical(self, fault_free):
        engine = CampaignEngine(
            jobs=1, campaign_seed=7, method="replay", fault_plan=TRANSIENT_PLAN, max_retries=10
        )
        chaos = sweep(engine)
        assert engine.stats.faults_injected > 0
        assert engine.stats.quarantined == 0
        assert_identical(chaos, fault_free)

    @pytest.mark.parametrize("method", ["serial", "replay"])
    def test_inject_plan_recovers_completely(self, method):
        def run(engine):
            return engine.characterize(
                app(), make_v100_spec(), freqs_mhz=INJECT_FREQS, repetitions=REPS
            )

        clean = run(CampaignEngine(jobs=1, campaign_seed=42, method="serial"))
        engine = CampaignEngine(
            jobs=1, campaign_seed=42, method=method, fault_plan=INJECT_PLAN, max_retries=6
        )
        assert_identical(run(engine), clean)
        assert engine.stats.faults_injected > 0
        assert engine.stats.quarantined == 0
        assert engine.stats.completeness() == 1.0

    def test_chaos_campaign_shares_cache_with_fault_free(self, tmp_path, fault_free):
        # Transient plans preserve results, so their entries are valid
        # fault-free entries — a later clean run replays them.
        chaos_engine = CampaignEngine(
            jobs=1, campaign_seed=7, cache=ResultCache(tmp_path),
            fault_plan=TRANSIENT_PLAN, max_retries=10,
        )
        sweep(chaos_engine)
        clean_engine = CampaignEngine(jobs=1, campaign_seed=7, cache=ResultCache(tmp_path))
        assert_identical(sweep(clean_engine), fault_free)
        assert clean_engine.stats.cache_hits == len(FREQS) + 1
        assert clean_engine.stats.executed == 0


class TestRetrySemantics:
    def task(self, plan=None, max_retries=2, seed=11):
        return MeasurementTask(
            app=app(), spec=make_v100_spec(), freq_mhz=900.0, repetitions=1,
            seed=seed, fault_plan=plan, max_attempts=max_retries + 1,
        )

    def test_no_plan_is_single_clean_attempt(self):
        outcome = execute_task_resilient(self.task())
        assert outcome.attempts == 1 and outcome.faults == 0
        assert not outcome.quarantined

    def test_bounded_faults_recovered_within_budget(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec(kind="worker_crash", occurrences=(0, 1)),))
        outcome = execute_task_resilient(
            self.task(plan, plan.max_bounded_fires())
        )
        assert outcome.attempts == 3
        assert outcome.faults == 2
        assert not outcome.quarantined

    def test_recovered_measurement_matches_fault_free(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec(kind="launch_failure", occurrences=(0,)),))
        clean = execute_task_resilient(self.task()).measurement
        recovered = execute_task_resilient(self.task(plan, 3)).measurement
        assert recovered == clean

    def test_budget_exhaustion_quarantines_with_error(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec(kind="worker_crash", probability=1.0),))
        outcome = execute_task_resilient(self.task(plan, 2))
        assert outcome.quarantined
        assert outcome.attempts == 3
        assert "worker_crash" in outcome.error

    def test_outcome_is_deterministic(self):
        plan = FaultPlan(seed=9, specs=(FaultSpec(kind="sensor_dropout", probability=0.3),))
        a = execute_task_resilient(self.task(plan, 6))
        b = execute_task_resilient(self.task(plan, 6))
        assert a == b

    def test_real_errors_are_not_retried(self):
        class Exploder:
            name = "exploder"
            cache_config = {"name": "exploder"}

            def run(self, gpu):
                raise RuntimeError("real bug, not chaos")

        task = MeasurementTask(
            app=Exploder(), spec=make_v100_spec(), freq_mhz=900.0, repetitions=1,
            seed=3, fault_plan=TRANSIENT_PLAN, max_attempts=6,
        )
        with pytest.raises(RuntimeError, match="real bug"):
            execute_task_resilient(task)


class TestQuarantine:
    CRASH_PLAN = FaultPlan(seed=2, specs=(FaultSpec(kind="worker_crash", probability=1.0),))

    def test_campaign_degrades_to_partial_not_abort(self):
        engine = CampaignEngine(
            jobs=1, campaign_seed=7, fault_plan=self.CRASH_PLAN, max_retries=1
        )
        results = engine.characterize_many(
            [app()], make_v100_spec(), freqs_mhz=FREQS, repetitions=REPS
        )
        assert results == [None]  # baseline quarantined -> app dropped
        assert engine.stats.quarantined == len(FREQS) + 1
        assert engine.stats.quarantined_points
        assert engine.stats.completeness() == 0.0

    def test_stats_dict_reports_completeness(self):
        engine = CampaignEngine(
            jobs=1, campaign_seed=7, fault_plan=self.CRASH_PLAN, max_retries=0
        )
        engine.characterize_many([app()], make_v100_spec(), freqs_mhz=FREQS, repetitions=1)
        record = engine.stats.as_dict()
        assert record["quarantined"] == engine.stats.quarantined
        assert record["completeness"] == 0.0
        assert record["retries"] == 0

    def test_quarantined_points_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        engine = CampaignEngine(
            jobs=1, campaign_seed=7, cache=cache,
            fault_plan=self.CRASH_PLAN, max_retries=1,
        )
        engine.characterize_many([app()], make_v100_spec(), freqs_mhz=FREQS, repetitions=1)
        assert cache.entry_count() == 0

    def test_campaign_data_skips_quarantined_apps(self):
        from repro.experiments.datasets import build_ligen_campaign
        from repro.synergy import Platform

        device = Platform.default(seed=7).get_device("v100")
        engine = CampaignEngine(
            jobs=1, campaign_seed=7, fault_plan=self.CRASH_PLAN, max_retries=0
        )
        campaign = build_ligen_campaign(
            device, ligand_counts=(16,), atom_counts=(31,), fragment_counts=(4,),
            freq_count=2, repetitions=1, engine=engine,
        )
        assert len(campaign.characterizations) == 0
        assert len(campaign.dataset) == 0
        assert campaign.stats.quarantined == campaign.stats.tasks_total

    def test_partial_quarantine_keeps_surviving_points(self):
        # Crash only the first sweep-point attempt streak of one task by
        # scheduling occurrences beyond the retry budget for occurrence 0..2.
        plan = FaultPlan(
            seed=2, specs=(FaultSpec(kind="worker_crash", occurrences=(0, 1, 2)),)
        )
        engine = CampaignEngine(jobs=1, campaign_seed=7, fault_plan=plan, max_retries=2)
        results = engine.characterize_many(
            [app()], make_v100_spec(), freqs_mhz=FREQS, repetitions=1
        )
        # Every task runs in its own scope, so every task loses exactly
        # its first three attempts: budget 2 quarantines them all...
        assert engine.stats.quarantined == len(FREQS) + 1
        assert results == [None]
        # ...while budget 3 recovers them all.
        engine2 = CampaignEngine(jobs=1, campaign_seed=7, fault_plan=plan, max_retries=3)
        results2 = engine2.characterize_many(
            [app()], make_v100_spec(), freqs_mhz=FREQS, repetitions=1
        )
        assert engine2.stats.quarantined == 0
        assert results2[0] is not None


class TestCacheCorruptionHealing:
    CORRUPT_ALL = FaultPlan(
        seed=4, specs=(FaultSpec(kind="cache_corruption", probability=1.0, mode="tamper"),)
    )

    def test_engine_wraps_cache_for_corrupting_plans(self, tmp_path):
        engine = CampaignEngine(
            jobs=1, cache=ResultCache(tmp_path), fault_plan=self.CORRUPT_ALL
        )
        assert isinstance(engine.cache, FaultyResultCache)

    def test_engine_keeps_plain_cache_otherwise(self, tmp_path):
        engine = CampaignEngine(
            jobs=1, cache=ResultCache(tmp_path), fault_plan=TRANSIENT_PLAN
        )
        assert type(engine.cache) is ResultCache

    @pytest.mark.parametrize("mode", ["truncate", "tamper"])
    def test_corruption_detected_and_healed_not_served(self, tmp_path, mode, fault_free):
        plan = FaultPlan(
            seed=4, specs=(FaultSpec(kind="cache_corruption", probability=1.0, mode=mode),)
        )
        writer = CampaignEngine(
            jobs=1, campaign_seed=7, cache=ResultCache(tmp_path), fault_plan=plan
        )
        sweep(writer)
        assert writer.cache.corrupted_writes == len(FREQS) + 1

        healer = CampaignEngine(jobs=1, campaign_seed=7, cache=ResultCache(tmp_path))
        healed = sweep(healer)
        assert_identical(healed, fault_free)
        assert healer.stats.executed == len(FREQS) + 1  # everything recomputed
        if mode == "tamper":
            assert healer.cache.stats.corrupt == len(FREQS) + 1

        # The heal rewrote clean entries: a third run is pure cache replay.
        reader = CampaignEngine(jobs=1, campaign_seed=7, cache=ResultCache(tmp_path))
        assert_identical(sweep(reader), fault_free)
        assert reader.stats.cache_hits == len(FREQS) + 1
        assert reader.cache.stats.corrupt == 0


class TestCorruptingPlansAndTheCache:
    OUTLIER_PLAN = FaultPlan(
        seed=6, specs=(FaultSpec(kind="sensor_outlier", probability=0.2, scale=50.0),)
    )

    def test_outlier_plan_changes_measurements(self, fault_free):
        engine = CampaignEngine(jobs=1, campaign_seed=7, fault_plan=self.OUTLIER_PLAN)
        poisoned = sweep(engine)
        assert engine.stats.faults_injected > 0
        times = [s.time_s for s in poisoned.samples] + [poisoned.baseline_time_s]
        clean = [s.time_s for s in fault_free.samples] + [fault_free.baseline_time_s]
        assert times != clean

    def test_outlier_entries_do_not_pollute_shared_cache(self, tmp_path, fault_free):
        poisoner = CampaignEngine(
            jobs=1, campaign_seed=7, cache=ResultCache(tmp_path),
            fault_plan=self.OUTLIER_PLAN,
        )
        sweep(poisoner)
        assert poisoner.stats.faults_injected > 0
        # Fault-free run over the same cache: different key space, so it
        # recomputes everything and returns clean results.
        clean_engine = CampaignEngine(jobs=1, campaign_seed=7, cache=ResultCache(tmp_path))
        assert_identical(sweep(clean_engine), fault_free)
        assert clean_engine.stats.cache_hits == 0

    def test_outlier_campaign_replays_from_its_own_cache(self, tmp_path):
        first = CampaignEngine(
            jobs=1, campaign_seed=7, cache=ResultCache(tmp_path),
            fault_plan=self.OUTLIER_PLAN,
        )
        a = sweep(first)
        second = CampaignEngine(
            jobs=1, campaign_seed=7, cache=ResultCache(tmp_path),
            fault_plan=self.OUTLIER_PLAN,
        )
        b = sweep(second)
        assert second.stats.cache_hits == len(FREQS) + 1
        assert_identical(a, b)


class TestSummaryAndCli:
    def test_campaign_summary_reports_fault_lines(self):
        from repro.experiments.datasets import build_ligen_campaign
        from repro.experiments.report import render_campaign_summary
        from repro.synergy import Platform

        device = Platform.default(seed=7).get_device("v100")
        engine = CampaignEngine(
            jobs=1, campaign_seed=7, fault_plan=TRANSIENT_PLAN, max_retries=10
        )
        campaign = build_ligen_campaign(
            device, ligand_counts=(16,), atom_counts=(31,), fragment_counts=(4,),
            freq_count=2, repetitions=1, engine=engine,
        )
        text = render_campaign_summary(campaign)
        assert "faults injected" in text
        assert "completeness" in text

    def test_cli_campaign_with_inject_plan(self, tmp_path, capsys):
        from repro.cli import main

        plan_path = tmp_path / "plan.json"
        TRANSIENT_PLAN.save(plan_path)
        rc = main([
            "campaign", "--app", "ligen", "--quick", "--freqs", "2", "--reps", "1",
            "--no-cache", "--inject", str(plan_path), "--max-retries", "10",
            "--no-replay",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault injection: fault plan (seed 13)" in out
        assert "faults injected" in out

    def test_cli_rejects_unreadable_plan(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "campaign", "--app", "ligen", "--quick", "--no-cache",
            "--inject", str(tmp_path / "missing.json"),
        ])
        assert rc == 1
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_cli_warns_on_quarantine(self, tmp_path, capsys):
        from repro.cli import main

        plan_path = tmp_path / "crash.json"
        FaultPlan(
            seed=2, specs=(FaultSpec(kind="worker_crash", probability=1.0),)
        ).save(plan_path)
        rc = main([
            "campaign", "--app", "ligen", "--quick", "--freqs", "2", "--reps", "1",
            "--no-cache", "--inject", str(plan_path), "--max-retries", "0",
            "--no-replay",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "quarantined" in captured.err
        assert "0.0% complete" in captured.err
