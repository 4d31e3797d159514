"""FaultPlan / FaultSpec: validation, classification, JSON round-trips."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    CACHE_MODES,
    CORRUPTING_KINDS,
    FAULT_KINDS,
    TRANSIENT_KINDS,
    FaultPlan,
    FaultSpec,
)


class TestKindCatalog:
    def test_transient_and_corrupting_kinds_are_known(self):
        assert set(TRANSIENT_KINDS) <= set(FAULT_KINDS)
        assert set(CORRUPTING_KINDS) <= set(FAULT_KINDS)
        assert not set(TRANSIENT_KINDS) & set(CORRUPTING_KINDS)

    def test_cache_corruption_is_neither_transient_nor_corrupting(self):
        # Recoverable by detection, not by retry; results stay intact.
        assert "cache_corruption" not in TRANSIENT_KINDS
        assert "cache_corruption" not in CORRUPTING_KINDS


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultSpec(kind="gamma_ray", probability=0.1)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_probability_out_of_range_rejected(self, p):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultSpec(kind="launch_failure", probability=p)

    def test_never_firing_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="never fire"):
            FaultSpec(kind="launch_failure")

    def test_negative_occurrence_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            FaultSpec(kind="launch_failure", occurrences=(-1,))

    def test_occurrences_sorted_and_coerced(self):
        spec = FaultSpec(kind="launch_failure", occurrences=(5, 1, 3))
        assert spec.occurrences == (1, 3, 5)

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="scale"):
            FaultSpec(kind="sensor_outlier", probability=0.5, scale=0.0)

    def test_bad_cache_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            FaultSpec(kind="cache_corruption", probability=1.0, mode="melt")

    @pytest.mark.parametrize("mode", CACHE_MODES)
    def test_known_cache_modes_accepted(self, mode):
        assert FaultSpec(kind="cache_corruption", probability=1.0, mode=mode).mode == mode

    def test_transient_and_bounded_properties(self):
        bounded = FaultSpec(kind="launch_failure", occurrences=(0,))
        assert bounded.transient and bounded.bounded
        prob = FaultSpec(kind="sensor_outlier", probability=0.2)
        assert not prob.transient and not prob.bounded


class TestPlanClassification:
    def test_transient_only_plan_is_result_preserving(self):
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(kind="launch_failure", probability=0.1),
                FaultSpec(kind="cache_corruption", probability=0.5),
            ),
        )
        assert plan.result_preserving

    def test_outlier_plan_is_not_result_preserving(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec(kind="sensor_outlier", probability=0.1),))
        assert not plan.result_preserving

    def test_has_kind_and_specs_for(self):
        a = FaultSpec(kind="launch_failure", probability=0.1)
        b = FaultSpec(kind="worker_crash", occurrences=(0,))
        plan = FaultPlan(seed=0, specs=(a, b))
        assert plan.has_kind("worker_crash")
        assert not plan.has_kind("sensor_dropout")
        assert plan.specs_for("worker_crash") == [(1, b)]
        assert len(plan) == 2

    def test_max_bounded_fires_counts_occurrence_lists_only(self):
        plan = FaultPlan(
            seed=0,
            specs=(
                FaultSpec(kind="launch_failure", occurrences=(0, 2)),
                FaultSpec(kind="sensor_dropout", occurrences=(1,)),
                FaultSpec(kind="freq_rejection", probability=0.5),
                FaultSpec(kind="cache_corruption", occurrences=(0, 1)),
            ),
        )
        # sensor_dropout is consulted at two sites, so its single
        # occurrence entry can abort two attempts; cache corruption
        # never aborts an attempt and contributes nothing.
        assert plan.max_bounded_fires() == 4

    def test_non_spec_entry_rejected(self):
        with pytest.raises(ConfigurationError, match="FaultSpec"):
            FaultPlan(seed=0, specs=({"kind": "launch_failure"},))


class TestJsonRoundTrip:
    def plan(self):
        return FaultPlan(
            seed=99,
            specs=(
                FaultSpec(kind="launch_failure", probability=0.25, occurrences=(0, 7)),
                FaultSpec(kind="sensor_outlier", probability=0.1, scale=12.0),
                FaultSpec(kind="cache_corruption", probability=1.0, mode="tamper"),
            ),
        )

    def test_json_round_trip_preserves_identity(self):
        plan = self.plan()
        assert FaultPlan.from_record(json.loads(plan.to_json())) == plan

    def test_save_load_round_trip(self, tmp_path):
        plan = self.plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_fingerprint_stable_and_distinguishing(self):
        plan = self.plan()
        assert plan.fingerprint() == self.plan().fingerprint()
        other = FaultPlan(seed=100, specs=plan.specs)
        assert other.fingerprint() != plan.fingerprint()

    def test_missing_file_raises_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            FaultPlan.load(tmp_path / "absent.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            FaultPlan.load(path)

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigurationError, match="not a fault plan"):
            FaultPlan.from_record({"format": "something.else"})

    def test_wrong_version_rejected(self):
        with pytest.raises(ConfigurationError, match="version"):
            FaultPlan.from_record({"format": "repro.fault_plan", "version": 999})

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault spec field"):
            FaultSpec.from_record({"kind": "launch_failure", "probability": 0.1, "extra": 1})

    def test_describe_mentions_every_kind(self):
        text = self.plan().describe()
        assert "seed 99" in text
        for kind in ("launch_failure", "sensor_outlier", "cache_corruption"):
            assert kind in text

    def test_empty_plan_describes_itself(self):
        assert "empty" in FaultPlan(seed=0).describe()
