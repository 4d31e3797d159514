"""The engine's retry budget: validation, and retries that never sleep."""

import time

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultSpec
from repro.hw.specs import make_v100_spec
from repro.ligen.app import LigenApplication
from repro.runtime.engine import CampaignEngine, MeasurementTask, execute_task_resilient


class TestValidation:
    def test_defaults_never_sleep(self, monkeypatch):
        assert CampaignEngine().max_attempts == 3

        def no_sleep(seconds):
            raise AssertionError(f"a retry slept {seconds} s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        plan = FaultPlan(seed=1, specs=(FaultSpec(kind="worker_crash", occurrences=(0, 1)),))
        task = MeasurementTask(
            app=LigenApplication(n_ligands=16, n_atoms=31, n_fragments=4),
            spec=make_v100_spec(), freq_mhz=900.0, repetitions=1, seed=11, fault_plan=plan,
        )
        outcome = execute_task_resilient(task)
        assert outcome.attempts == 3 and not outcome.quarantined

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="max_retries"):
            CampaignEngine(max_retries=-1)

    def test_zero_retries_means_single_attempt(self):
        assert CampaignEngine(max_retries=0).max_attempts == 1
