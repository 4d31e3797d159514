"""One reader, one format table: broken spec files are findings, not crashes.

Every spec file is read by ``read_spec_file``: unreadable files are
``IO001`` and bytes that are not UTF-8 JSON are ``SYN001`` under lint,
and a typed ``SpecError`` (``ConfigurationError`` for fault plans) for
loaders. A ``format`` tag that is not a string is an unrecognized
format: skipped in a directory walk, ``SPEC001`` when named explicitly.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, SpecError
from repro.faults.plan import FaultPlan
from repro.specs import (
    KNOWN_SPEC_FORMATS,
    RUNNABLE_SPEC_FORMATS,
    SPEC_FORMATS,
    CampaignSpec,
    FleetSpec,
    LifecycleSpec,
    ScenarioSpec,
    check_json_file,
    check_record,
    load_device_table,
    read_spec_file,
)

HERE = Path(__file__).parent
EXAMPLES = HERE.parent.parent / "examples" / "specs"
VALID = HERE / "fixtures" / "valid"

NON_STRING_TAGS = [["repro.fleet"], {"format": "repro.fleet"}, 7, True]
UNDECODABLE = b"\xff\xfe{\x00}\x00"


def _lint_json(capsys, *argv):
    rc = main(["lint", "--no-self-check", "--format", "json", *argv])
    return rc, json.loads(capsys.readouterr().out)["diagnostics"]


def _tree_with(tmp_path, name, data):
    shutil.copy(VALID / "campaign_quick.json", tmp_path / "campaign.json")
    bad = tmp_path / name
    bad.write_bytes(data)
    return bad


class TestNonStringFormat:
    @pytest.mark.parametrize("tag", NON_STRING_TAGS, ids=repr)
    def test_tree_lint_skips_the_file_and_lints_the_rest(self, tmp_path, capsys, tag):
        _tree_with(tmp_path, "odd.json", json.dumps({"format": tag, "schema_version": 1}).encode())
        (tmp_path / "bad_campaign.json").write_text(
            json.dumps({"format": "repro.campaign", "schema_version": 1, "app": {"kind": "x"}})
        )
        rc, diags = _lint_json(capsys, "--select", "SPEC", str(tmp_path))
        assert rc == 1
        assert {Path(d["file"]).name for d in diags} == {"bad_campaign.json"}

    @pytest.mark.parametrize("tag", NON_STRING_TAGS, ids=repr)
    def test_named_file_is_spec001(self, tmp_path, tag):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"format": tag, "schema_version": 1}))
        diags = check_json_file(path, explicit=True)
        assert [d.rule for d in diags] == ["SPEC001"]
        assert [d.rule for d in check_record({"format": tag})] == ["SPEC001"]

    def test_repro_run_rejects_it_through_lint(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"format": ["repro.fleet"], "schema_version": 1}))
        assert main(["run", str(path)]) == 1
        assert "SPEC001" in capsys.readouterr().err


class TestUndecodableBytes:
    def test_tree_lint_reports_syn001_and_keeps_going(self, tmp_path, capsys):
        _tree_with(tmp_path, "utf16.json", UNDECODABLE)
        (tmp_path / "bad_campaign.json").write_text(
            json.dumps({"format": "repro.campaign", "schema_version": 1, "app": {"kind": "x"}})
        )
        rc, diags = _lint_json(capsys, str(tmp_path))
        assert rc == 1
        by_file = {Path(d["file"]).name: d["rule"] for d in diags}
        assert by_file == {"utf16.json": "SYN001", "bad_campaign.json": "SPEC003"}

    def test_referenced_file_is_syn001(self, tmp_path):
        (tmp_path / "campaign.json").write_bytes(UNDECODABLE)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(
                {"format": "repro.scenario", "schema_version": 1, "name": "s",
                 "campaign": "campaign.json"}
            )
        )
        diags = check_json_file(scenario, explicit=True)
        assert [d.rule for d in diags] == ["SYN001"]
        assert diags[0].file.endswith("campaign.json")

    @pytest.mark.parametrize(
        "load", [CampaignSpec.load, ScenarioSpec.load, FleetSpec.load, LifecycleSpec.load,
                 load_device_table],
        ids=lambda f: f.__qualname__,
    )
    def test_loaders_raise_spec_error(self, tmp_path, load):
        path = tmp_path / "spec.json"
        path.write_bytes(UNDECODABLE)
        with pytest.raises(SpecError, match="not valid JSON"):
            load(path)

    def test_fault_plan_load_raises_configuration_error(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_bytes(UNDECODABLE)
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            FaultPlan.load(path)

    def test_repro_run_reports_syn001(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_bytes(UNDECODABLE)
        assert main(["run", str(path)]) == 1
        assert "SYN001" in capsys.readouterr().err


class TestDeviceTableLoader:
    def test_a_table_the_spec_rejects_raises_spec_error(self, tmp_path):
        record = json.loads((EXAMPLES / "device_v100.json").read_text())
        record["voltage"]["knee"] = {"value": 5000.0, "unit": "MHz"}
        path = tmp_path / "device.json"
        path.write_text(json.dumps(record))
        assert [d.rule for d in check_json_file(path, explicit=True)] == ["SPEC002"]
        with pytest.raises(SpecError, match="does not build a valid spec"):
            load_device_table(path)


class TestReader:
    def test_chains_the_cause(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec") as err:
            read_spec_file(tmp_path / "absent.json")
        assert isinstance(err.value.__cause__, OSError)
        bad = tmp_path / "bad.json"
        bad.write_bytes(UNDECODABLE)
        with pytest.raises(SpecError, match="not valid JSON") as err:
            read_spec_file(bad, "fleet spec")
        assert isinstance(err.value.__cause__, UnicodeDecodeError)

    def test_parses_a_spec(self):
        assert read_spec_file(EXAMPLES / "fleet_smoke.json")["format"] == "repro.fleet"


class TestFormatTable:
    def test_table_feeds_the_known_and_runnable_formats(self):
        assert KNOWN_SPEC_FORMATS == tuple(sorted(SPEC_FORMATS))
        assert RUNNABLE_SPEC_FORMATS == (
            "repro.campaign", "repro.fleet", "repro.lifecycle", "repro.scenario",
        )
        for fmt in RUNNABLE_SPEC_FORMATS:
            assert SPEC_FORMATS[fmt].spec_class.schema.format == fmt


class TestFleetFaultsRoundTrip:
    def _record(self, faults):
        record = json.loads((EXAMPLES / "fleet_smoke.json").read_text())
        record["faults"] = faults
        return record

    def test_zero_probability_group_reads_as_absent(self):
        spec = FleetSpec.from_record(
            self._record({"gpu_failure_prob": 0.0, "repair_ticks": 3})
        )
        absent = FleetSpec.from_record(self._record(None))
        assert spec.repair_ticks == 10
        assert spec == absent
        assert FleetSpec.from_record(spec.as_record()) == spec
        assert spec.fingerprint() == absent.fingerprint()

    def test_nonzero_probability_keeps_repair_ticks(self):
        spec = FleetSpec.from_record(
            self._record({"gpu_failure_prob": 0.05, "repair_ticks": 3})
        )
        assert spec.repair_ticks == 3
        assert spec.as_record()["faults"] == {"gpu_failure_prob": 0.05, "repair_ticks": 3}
