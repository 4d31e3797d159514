"""End-to-end lifecycle integration: drift → retrain → canary → promote.

Runs :func:`repro.lifecycle.run_lifecycle` against a real model registry
in a tmpdir — real characterization campaigns, real measurements, a
real ledger on disk — and checks the whole loop story: the bootstrap
registers and serves v1, injected drift fires the monitor, a candidate
is retrained and shadow-vetted, promotion recovers the rolling MAPE,
and the audit trail replays to exactly the final serving state.

The failure path is driven at the component level: a deliberately
miscalibrated candidate must be rejected, rolled back and quarantined
while the incumbent keeps serving bit-identical advice.
"""

import json

import numpy as np
import pytest

from repro.lifecycle import CanaryController, PromotionLedger, run_lifecycle
from repro.serving import ModelRegistry
from repro.serving.service import AdvisorService
from repro.specs import LifecycleSpec


def _spec(base_dir: str, **overrides) -> LifecycleSpec:
    record = {
        "format": "repro.lifecycle",
        "schema_version": 1,
        "name": "it-lifecycle",
        "seed": 7,
        "model": {"registry": "reg", "name": "ligen-advisor"},
        "workload": {
            "app": "ligen",
            "device": "v100",
            "ligand_counts": [2, 256],
            "atom_counts": [31, 89],
            "fragment_counts": [4, 20],
            "freq_count": 6,
            "repetitions": 1,
            "trees": 12,
        },
        "drift": {
            "window": 64,
            "enter_mape": 20.0,
            "exit_mape": 10.0,
            "patience": 1,
            "min_samples": 4,
        },
        "canary": {"shadow_size": 32, "tolerance": 0.0},
        "injection": {"epoch": 1, "work_scale": 4.0},
        "epochs": 5,
        "requests_per_epoch": 8,
    }
    record.update(overrides)
    return LifecycleSpec.from_record(record, base_dir=base_dir)


@pytest.fixture(scope="module")
def closed_run(tmp_path_factory):
    """One closed-loop run shared by the read-only assertions below."""
    base = tmp_path_factory.mktemp("closed")
    return str(base), run_lifecycle(_spec(str(base)), closed_loop=True)


class TestClosedLoop:
    def test_bootstrap_registers_and_serves_v1(self, closed_run):
        base, result = closed_run
        assert result.initial_version == 1
        registry = ModelRegistry(f"{base}/reg")
        assert registry.manifest("ligen-advisor", 1).version == 1

    def test_drift_fires_and_candidate_promotes(self, closed_run):
        _, result = closed_run
        events = [row["event"] for row in result.epochs]
        assert "drift" in events
        promoted = [d for d in result.decisions if d.promoted]
        assert len(promoted) == 1
        assert promoted[0].candidate_mape <= promoted[0].incumbent_mape
        assert result.final_version == promoted[0].candidate_version
        assert result.final_version > result.initial_version

    def test_promotion_recovers_rolling_mape(self, closed_run):
        _, result = closed_run
        drift_epoch = next(
            row["epoch"] for row in result.epochs if row["event"] == "drift"
        )
        peak = result.epochs[drift_epoch]["rolling_mape"]
        assert peak > 20.0
        assert result.final_rolling_mape < 20.0
        assert result.final_rolling_mape < peak

    def test_ledger_replays_to_final_serving_state(self, closed_run):
        base, result = closed_run
        ledger = PromotionLedger.for_model(f"{base}/reg", "ligen-advisor")
        state = ledger.replay()
        assert state.active_version == result.final_version
        assert state.as_record() == result.ledger_state
        kinds = [e["kind"] for e in ledger.entries()]
        assert kinds[0] == "register"  # bootstrap
        assert "drift" in kinds and "promote" in kinds

    def test_no_ledgered_promotion_worsened_shadow_mape(self, closed_run):
        """Read from the chain-verified ledger, not from in-memory state."""
        base, _ = closed_run
        ledger = PromotionLedger.for_model(f"{base}/reg", "ligen-advisor")
        promotions = [e["payload"] for e in ledger.entries() if e["kind"] == "promote"]
        # Manual promotions record null MAPEs; canary promotions carry
        # the shadow evidence the invariant is checked on.
        checked = [p for p in promotions if p.get("candidate_mape") is not None]
        assert checked
        for payload in checked:  # the spec's canary tolerance is 0.0
            assert payload["candidate_mape"] <= payload["incumbent_mape"]

    def test_epoch_rows_track_served_version(self, closed_run):
        _, result = closed_run
        served = [row["served_version"] for row in result.epochs]
        assert served[0] == 1
        assert served[-1] == result.final_version
        assert served == sorted(served)  # promotions only move forward here

    def test_rerun_is_bitwise_identical(self, closed_run, tmp_path):
        base, result = closed_run
        replay = run_lifecycle(_spec(str(tmp_path)), closed_loop=True)
        assert replay.as_record() == result.as_record()
        first = (
            f"{base}/reg/ligen-advisor/LEDGER.jsonl"
        )
        second = tmp_path / "reg" / "ligen-advisor" / "LEDGER.jsonl"
        with open(first, "rb") as handle:
            assert handle.read() == second.read_bytes()


class TestFrozenBaseline:
    def test_frozen_loop_never_retrains_and_stays_degraded(self, tmp_path):
        result = run_lifecycle(_spec(str(tmp_path)), closed_loop=False)
        assert result.final_version == result.initial_version == 1
        assert result.decisions == ()
        assert result.final_rolling_mape > 20.0
        registry = ModelRegistry(tmp_path / "reg")
        assert [m.version for m in registry.list()] == [1]
        # Drift is still observed and ledgered — the frozen arm just
        # doesn't act on it.
        events = [row["event"] for row in result.epochs]
        assert "drift" in events


class TestFailurePath:
    def test_bad_candidate_rolls_back_and_service_keeps_serving(self, tmp_path):
        """A miscalibrated candidate must never reach the active pointer."""
        from repro.lifecycle import build_retrainer, build_workload, OutcomeLog
        from repro.lifecycle.loop import _measure_outcome

        spec = _spec(str(tmp_path), injection=None, epochs=1)
        registry = ModelRegistry(tmp_path / "reg")
        retrainer = build_retrainer(spec, registry)
        apps = build_workload(spec)

        v1 = retrainer.retrain(apps, generation=0)
        controller = CanaryController(registry, spec.model_name)
        controller.record_register(v1)

        # The bad candidate: trained on a 4x-scaled regime the live
        # traffic is not in — on true shadow traffic it must lose.
        from repro.faults.drift import DriftedApplication

        scaled = [DriftedApplication(app, work_scale=4.0) for app in apps]
        v2 = retrainer.retrain(scaled, generation=1)
        controller.record_register(v2)

        service = AdvisorService.from_registry(
            registry, spec.model_name, spec.freq_grid(), version=1
        )
        log = OutcomeLog(window=64, shadow_capacity=32, seed=3)
        service.add_outcome_hook(log.hook())
        for request in range(8):
            app = apps[request % len(apps)]
            advice = service.advise(app.domain_features)
            t, e = _measure_outcome(spec, app, advice.freq_mhz, 0, request)
            service.record_outcome(app.domain_features, advice, t, e)

        probe = apps[0].domain_features
        before = service.advise(probe)
        decision = controller.consider(2, log.shadow_slice())

        assert not decision.promoted
        assert decision.candidate_mape > decision.incumbent_mape
        state = controller.ledger.replay()
        assert state.active_version == 1
        assert state.quarantined == (2,)
        # The service was never swapped: identical advice, same digest.
        assert service.manifest.version == 1
        after = service.advise(probe)
        assert after.freq_mhz == before.freq_mhz
        assert after.predicted_time_s == before.predicted_time_s
        # And the quarantined version can never come back.
        with pytest.raises(Exception, match="quarantined"):
            controller.promote_to(2)


class TestSpecRoundTrip:
    def test_spec_file_load_matches_from_record(self, tmp_path):
        spec = _spec(str(tmp_path))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.as_record()))
        loaded = LifecycleSpec.load(path)
        assert loaded.fingerprint() == spec.fingerprint()
        assert np.array_equal(loaded.freq_grid(), spec.freq_grid())
