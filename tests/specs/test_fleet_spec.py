"""Fleet spec schema: validation, defaults, round-trip, checker dispatch."""

import dataclasses
import json

import pytest

from repro.analysis.diagnostics import Severity
from repro.errors import SpecValidationError
from repro.specs import FLEET_SCHEMA, check_json_file, check_record
from repro.specs.fleet import FleetJobType, FleetSpec


def good_record():
    return {
        "format": "repro.fleet",
        "schema_version": 1,
        "name": "toy-fleet",
        "gpus": 8,
        "ticks": 40,
        "arrivals": {"rate_per_tick": 2.0, "horizon_ticks": 30},
        "job_types": [
            {"name": "small", "features": [1.0], "deadline_s": 10.0},
            {"name": "big", "features": [4.0], "deadline_s": 16.0, "weight": 2.0},
        ],
    }


class TestValidation:
    def test_good_record_is_clean(self):
        clean, diags = FLEET_SCHEMA.validate(good_record())
        assert diags == []
        assert clean["gpus"] == 8
        # omitted sections are filled with defaults
        assert clean["advisor"]["freq_points"] == 25
        assert clean["thermal"]["ambient_c"] == 30.0
        assert clean["policy"] == "advised"
        assert clean["faults"] is None

    def test_missing_required_fields_all_reported(self):
        record = good_record()
        del record["name"]
        del record["arrivals"]
        clean, diags = FLEET_SCHEMA.validate(record)
        assert clean is None
        messages = " ".join(d.message for d in diags)
        assert "name" in messages
        assert "arrivals" in messages

    def test_static_policy_requires_a_clock(self):
        record = good_record()
        record["policy"] = "static"
        clean, diags = FLEET_SCHEMA.validate(record)
        assert clean is None
        assert any("static_freq_mhz" in d.message for d in diags)

    @pytest.mark.parametrize("policy", ["static", "advised"])
    @pytest.mark.parametrize("clock", [100.0, 5000.0])
    def test_static_clock_outside_the_advisor_grid_rejected(self, policy, clock):
        """The static policy and the baseline snap the clock to the nearest
        grid point, so a clock off the grid would silently run elsewhere."""
        record = good_record()
        record.update(policy=policy, static_freq_mhz=clock)
        record["advisor"] = {"freq_min_mhz": 135.0, "freq_max_mhz": 1597.0}
        clean, diags = FLEET_SCHEMA.validate(record)
        assert clean is None
        assert [(d.rule, d.message) for d in diags] == [
            (
                "SPEC002",
                f"static_freq_mhz: {clock} is outside the advisor grid [135.0, 1597.0]",
            )
        ]

    @pytest.mark.parametrize("clock", [135.0, 866.0, 1597.0])
    def test_static_clock_on_the_advisor_grid_accepted(self, clock):
        record = good_record()
        record.update(policy="static", static_freq_mhz=clock)
        record["advisor"] = {"freq_min_mhz": 135.0, "freq_max_mhz": 1597.0}
        clean, diags = FLEET_SCHEMA.validate(record)
        assert diags == []
        assert clean["static_freq_mhz"] == clock

    @pytest.mark.parametrize(
        "clock, below, above",
        [
            (950.0, 926.9166666666666, 987.8333333333333),
            (990.0, 987.8333333333333, 1048.75),
            (1000.0, 987.8333333333333, 1048.75),
            (1010.0, 987.8333333333333, 1048.75),
            (1200.0, 1170.5833333333333, 1231.5),
        ],
    )
    def test_static_clock_between_grid_clocks_rejected(self, clock, below, above):
        """Inside the range but off the 25-clock default grid: the baseline
        would run at the nearest grid clock, so the spec names both."""
        record = good_record()
        record.update(policy="static", static_freq_mhz=clock)
        clean, diags = FLEET_SCHEMA.validate(record)
        assert clean is None
        assert [(d.rule, d.message) for d in diags] == [
            (
                "SPEC002",
                f"static_freq_mhz: {clock} is not a clock of the advisor grid; "
                f"the nearest are {below} and {above}",
            )
        ]

    @pytest.mark.parametrize(
        "advisor", [{}, {"freq_min_mhz": 210.0, "freq_max_mhz": 1410.0, "freq_points": 7}]
    )
    def test_every_grid_clock_accepted_as_printed(self, advisor):
        record = {**good_record(), "advisor": advisor}
        for clock in FleetSpec.from_record(record).freq_grid():
            record.update(policy="static", static_freq_mhz=json.loads(repr(float(clock))))
            clean, diags = FLEET_SCHEMA.validate(record)
            assert diags == [], clock

    def test_inverted_frequency_range_rejected(self):
        record = good_record()
        record["advisor"] = {"freq_min_mhz": 1500.0, "freq_max_mhz": 400.0}
        clean, diags = FLEET_SCHEMA.validate(record)
        assert clean is None
        assert any("freq_min_mhz" in d.message for d in diags)

    def test_mixed_feature_arity_rejected(self):
        record = good_record()
        record["job_types"][1]["features"] = [4.0, 1.0]
        clean, diags = FLEET_SCHEMA.validate(record)
        assert clean is None
        assert any("arity" in d.message for d in diags)

    def test_from_record_raises_with_every_problem(self):
        record = good_record()
        record["gpus"] = 0
        record["policy"] = "adaptive"
        with pytest.raises(SpecValidationError) as err:
            FleetSpec.from_record(record)
        text = str(err.value)
        assert "gpus" in text
        assert "policy" in text


class TestRoundTrip:
    def test_record_to_spec_to_record_is_stable(self):
        spec = FleetSpec.from_record(good_record())
        again = FleetSpec.from_record(spec.as_record())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_fingerprint_tracks_content_not_location(self):
        spec = FleetSpec.from_record(good_record())
        relocated = dataclasses.replace(spec, base_dir="/somewhere/else")
        assert relocated.fingerprint() == spec.fingerprint()
        reseeded = dataclasses.replace(spec, seed=spec.seed + 1)
        assert reseeded.fingerprint() != spec.fingerprint()

    def test_faults_section_round_trips(self):
        record = good_record()
        record["faults"] = {"gpu_failure_prob": 0.01, "repair_ticks": 5}
        spec = FleetSpec.from_record(record)
        assert spec.gpu_failure_prob == 0.01
        assert spec.repair_ticks == 5
        assert spec.as_record()["faults"] == record["faults"]
        # fault-free specs canonicalize the section away
        fault_free = dataclasses.replace(spec, gpu_failure_prob=0.0)
        assert fault_free.as_record()["faults"] is None

    def test_load_records_the_spec_directory(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(good_record()))
        spec = FleetSpec.load(path)
        assert spec.base_dir == str(tmp_path)
        assert spec.name == "toy-fleet"
        assert spec.job_types[1] == FleetJobType(
            name="big", features=(4.0,), deadline_s=16.0, weight=2.0
        )

    def test_freq_grid_spans_the_advisor_range(self):
        spec = FleetSpec.from_record(good_record())
        grid = spec.freq_grid()
        assert grid.size == spec.freq_points
        assert grid[0] == spec.freq_min_mhz
        assert grid[-1] == spec.freq_max_mhz

    def test_describe_mentions_the_quick_model_fallback(self):
        spec = FleetSpec.from_record(good_record())
        text = spec.describe()
        assert "built-in quick model" in text
        assert "8 GPUs" in text


class TestCheckerDispatch:
    def test_check_record_recognizes_fleet_specs(self):
        assert check_record(good_record()) == []

    def test_missing_registry_is_a_warning_not_an_error(self):
        record = good_record()
        record["advisor"] = {
            "model": {"registry": "no-such-dir", "name": "toy", "version": 1}
        }
        diags = check_record(record, base_dir="/nonexistent-base")
        assert len(diags) == 1
        assert diags[0].severity is Severity.WARNING
        assert "registry" in diags[0].message

    def test_lint_accepts_a_fleet_spec_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(good_record()))
        assert check_json_file(path, explicit=True) == []
