"""Unit tests for shadow evaluation and the canary promotion gate.

The conftest registry holds ``adv:v1`` (accurate), ``adv:v2`` (stale,
trained on 2x-scaled curves) and ``adv:v3`` (accurate again); shadow
records carry the analytic ground truth. The gate's decisions on these
are fully deterministic: v2 must be rejected, v3 must be promoted.
"""

import pytest

from repro.errors import LifecycleError
from repro.lifecycle import CanaryController, shadow_evaluate


class TestShadowEvaluate:
    def test_accurate_model_scores_low(self, good_model, shadow_records):
        rep = shadow_evaluate(good_model, shadow_records)
        assert rep.n_records == len(shadow_records)
        assert rep.mape < 10.0
        assert rep.mape == pytest.approx((rep.time_mape + rep.energy_mape) / 2.0)

    def test_stale_model_scores_high(self, stale_model, shadow_records):
        rep = shadow_evaluate(stale_model, shadow_records)
        assert rep.mape > 50.0

    def test_empty_slice_rejected(self, good_model):
        with pytest.raises(LifecycleError, match="at least one outcome record"):
            shadow_evaluate(good_model, [])

    def test_pure_function_of_inputs(self, good_model, shadow_records):
        a = shadow_evaluate(good_model, shadow_records)
        b = shadow_evaluate(good_model, tuple(shadow_records))
        assert a == b

    def test_as_record_round_trips_fields(self, good_model, shadow_records):
        rep = shadow_evaluate(good_model, shadow_records)
        rec = rep.as_record()
        assert rec["mape"] == rep.mape
        assert rec["n_records"] == rep.n_records


class TestConsider:
    def test_worse_candidate_rejected_and_quarantined(self, registry, shadow_records):
        gate = CanaryController(registry, "adv")
        decision = gate.consider(2, shadow_records, incumbent_version=1)
        assert not decision.promoted
        assert decision.candidate_mape > decision.incumbent_mape
        assert "worse than" in decision.reason
        state = gate.ledger.replay()
        assert state.quarantined == (2,)
        assert gate.active_version() == 1  # incumbent keeps serving

    def test_no_worse_candidate_promoted(self, registry, shadow_records):
        gate = CanaryController(registry, "adv")
        decision = gate.consider(3, shadow_records, incumbent_version=1)
        assert decision.promoted
        assert decision.candidate_mape <= decision.incumbent_mape
        assert gate.active_version() == 3
        promote = [e for e in gate.ledger.entries() if e["kind"] == "promote"][-1]
        assert promote["payload"]["to_version"] == 3
        assert promote["payload"]["candidate_mape"] == decision.candidate_mape

    def test_quarantined_candidate_never_reconsidered(self, registry, shadow_records):
        gate = CanaryController(registry, "adv")
        gate.consider(2, shadow_records, incumbent_version=1)
        with pytest.raises(LifecycleError, match="quarantined"):
            gate.consider(2, shadow_records, incumbent_version=1)

    def test_empty_shadow_is_automatic_rejection(self, registry):
        gate = CanaryController(registry, "adv")
        decision = gate.consider(3, (), incumbent_version=1)
        assert not decision.promoted
        assert decision.shadow_size == 0
        # NaN never enters the ledger: evidence-free MAPEs are null.
        rollback = [e for e in gate.ledger.entries() if e["kind"] == "rollback"][-1]
        assert rollback["payload"]["incumbent_mape"] is None
        assert rollback["payload"]["candidate_mape"] is None

    def test_no_incumbent_raises(self, registry, shadow_records, tmp_path):
        from repro.serving import ModelRegistry

        empty = ModelRegistry(tmp_path / "empty-reg")
        gate = CanaryController(empty, "ghost")
        with pytest.raises(LifecycleError, match="no incumbent"):
            gate.consider(1, shadow_records)

    def test_tolerance_accepts_slightly_worse(self, registry, shadow_records):
        strict = CanaryController(registry, "adv")
        rejected = strict.consider(2, shadow_records, incumbent_version=1)
        loose = CanaryController(
            registry,
            "adv",
            tolerance=rejected.candidate_mape - rejected.incumbent_mape + 1.0,
        )
        # Fresh name/ledger so v2's quarantine doesn't block the retry.
        loose.ledger.path.unlink()
        assert loose.consider(2, shadow_records, incumbent_version=1).promoted

    def test_negative_tolerance_rejected(self, registry):
        with pytest.raises(LifecycleError, match="tolerance"):
            CanaryController(registry, "adv", tolerance=-1.0)


class TestRollback:
    def test_rollback_restores_exact_prior_digest(self, registry, shadow_records):
        gate = CanaryController(registry, "adv")
        gate.record_register(registry.manifest("adv", 1))
        before = registry.manifest("adv", 1).artifact_sha256
        assert gate.consider(3, shadow_records, incumbent_version=1).promoted
        restored = gate.rollback()
        assert restored == 1
        assert gate.active_version() == 1
        _, manifest = registry.resolve("adv", gate.active_version())
        assert manifest.artifact_sha256 == before

    def test_rollback_without_history_raises(self, registry):
        gate = CanaryController(registry, "adv")
        with pytest.raises(LifecycleError, match="no previous version"):
            gate.rollback()

    def test_rollback_refuses_quarantined_target(self, registry, shadow_records):
        gate = CanaryController(registry, "adv")
        gate.consider(2, shadow_records, incumbent_version=1)
        with pytest.raises(LifecycleError, match="quarantined"):
            gate.rollback(to_version=2)

    def test_explicit_rollback_target_verified_in_registry(self, registry):
        gate = CanaryController(registry, "adv")
        from repro.errors import RegistryError

        with pytest.raises(RegistryError):
            gate.rollback(to_version=9)


class TestPromoteTo:
    def test_manual_promotion_records_null_evidence(self, registry):
        gate = CanaryController(registry, "adv")
        assert gate.promote_to(3) == 3
        assert gate.active_version() == 3
        promote = [e for e in gate.ledger.entries() if e["kind"] == "promote"][-1]
        assert promote["payload"]["incumbent_mape"] is None
        assert promote["payload"]["shadow_size"] == 0

    def test_refuses_quarantined_version(self, registry, shadow_records):
        gate = CanaryController(registry, "adv")
        gate.consider(2, shadow_records, incumbent_version=1)
        with pytest.raises(LifecycleError, match="quarantined"):
            gate.promote_to(2)

    def test_refuses_unknown_version(self, registry):
        from repro.errors import RegistryError

        gate = CanaryController(registry, "adv")
        with pytest.raises(RegistryError):
            gate.promote_to(9)


class TestActiveVersion:
    def test_no_ledger_defaults_to_latest(self, registry):
        assert CanaryController(registry, "adv").active_version() == 3

    def test_no_versions_is_none(self, registry):
        assert CanaryController(registry, "ghost").active_version() is None

    def test_record_register_pins_first_version(self, registry):
        gate = CanaryController(registry, "adv")
        gate.record_register(registry.manifest("adv", 1))
        assert gate.active_version() == 1  # ledger now outranks "latest"

    def test_record_drift_is_audit_only(self, registry):
        from repro.lifecycle import DriftEvent

        gate = CanaryController(registry, "adv")
        gate.record_register(registry.manifest("adv", 1))
        gate.record_drift(
            DriftEvent(kind="drift", mape=30.0, threshold=20.0, observation=4)
        )
        assert gate.active_version() == 1
        assert [e["kind"] for e in gate.ledger.entries()] == ["register", "drift"]
