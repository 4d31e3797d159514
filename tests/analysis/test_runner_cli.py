"""End-to-end tests: the lint runner, self-check, and the `repro lint` CLI."""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import run_lint, self_check
from repro.analysis.runner import (
    KNOWN_RULE_FAMILIES,
    KNOWN_RULE_IDS,
    expand_select,
    iter_lint_targets,
    lint_paths,
)
from repro.cli import main

PACKAGE_DIR = Path(repro.__file__).parent
FIXTURE = Path(__file__).parent / "fixtures_bad.py.txt"


class TestSelfCheck:
    def test_shipped_static_layer_is_clean(self):
        assert self_check() == []


class TestRunner:
    def test_shipped_tree_is_clean(self):
        assert run_lint([str(PACKAGE_DIR)]) == []

    def test_iter_python_files_deduplicates(self):
        target = PACKAGE_DIR / "errors.py"
        files = iter_lint_targets([str(target), str(target)], suffixes=(".py",))
        assert files == [(target, True)]

    def test_broken_file_reports_all_rule_classes(self, tmp_path):
        bad = tmp_path / "ml" / "bad.py"
        bad.parent.mkdir()
        bad.write_text(FIXTURE.read_text())
        rules = {d.rule for d in lint_paths([str(tmp_path)])}
        assert rules == {"DET001", "EXC001", "FLT001", "MUT001", "TIM001"}

    def test_select_filters_self_check_too(self):
        diags = run_lint([str(PACKAGE_DIR / "errors.py")], select=["HW001"])
        assert diags == []

    def test_unknown_select_rule_raises(self):
        with pytest.raises(ValueError, match="NOPE999"):
            run_lint([str(PACKAGE_DIR / "errors.py")], select=["NOPE999"])


class TestExpandSelect:
    def test_none_means_all_rules(self):
        assert expand_select(None) is None

    def test_exact_ids_pass_through(self):
        assert expand_select(["DET001", "HW001"]) == frozenset({"DET001", "HW001"})

    def test_family_expands_to_every_member(self):
        expanded = expand_select(["SPEC"])
        assert expanded == frozenset(
            {"SPEC001", "SPEC002", "SPEC003", "SPEC004", "SPEC005"}
        )

    def test_hw_family_includes_the_memory_domain_rule(self):
        expanded = expand_select(["HW"])
        assert expanded == frozenset({"HW001", "HW002", "HW003", "HW004", "HW005"})
        assert "HW005" in KNOWN_RULE_IDS

    def test_families_cover_every_known_rule(self):
        for family in KNOWN_RULE_FAMILIES:
            assert expand_select([family]) <= frozenset(KNOWN_RULE_IDS)

    def test_mixed_families_and_ids(self):
        expanded = expand_select(["SPEC", "DET001"])
        assert "SPEC003" in expanded
        assert "DET001" in expanded

    def test_tokens_are_case_and_whitespace_insensitive(self):
        assert expand_select([" spec ", "hw001"]) == expand_select(["SPEC", "HW001"])

    def test_typo_rejected_listing_families(self):
        with pytest.raises(ValueError, match="SPEX") as exc:
            expand_select(["SPEX"])
        assert "families" in str(exc.value)

    def test_hw005_renders_through_the_standard_json_schema(self):
        # HW005 is only reachable from in-memory specs (every JSON-borne
        # memory-domain defect is caught earlier, at SPEC level), but its
        # diagnostics must still serialize exactly like every other rule.
        from dataclasses import replace

        from repro.analysis.diagnostics import render_json
        from repro.analysis.hw_validator import verify_memory_domain
        from repro.hw.dvfs import VoltageCurve
        from repro.hw.specs import make_a100_spec

        narrow = VoltageCurve(
            v_min=0.80, v_max=1.20, f_min_mhz=900.0, f_knee_mhz=900.0,
            f_max_mhz=1215.0, exponent=1.0,
        )
        diags = verify_memory_domain(replace(make_a100_spec(), mem_voltage=narrow))
        payload = json.loads(render_json(diags))
        assert payload["format"] == "repro.lint"
        assert payload["counts"]["error"] == len(payload["diagnostics"]) > 0
        assert {d["rule"] for d in payload["diagnostics"]} == {"HW005"}
        assert all(
            set(d) >= {"rule", "severity", "message", "file"}
            for d in payload["diagnostics"]
        )

    def test_shipped_example_tables_are_hw_clean(self, capsys):
        examples = Path(__file__).parent.parent.parent / "examples" / "specs"
        rc = main(["lint", "--select", "HW", "--no-self-check", str(examples)])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out

    def test_family_select_through_run_lint(self):
        fixture = Path(__file__).parent.parent / "specs" / "fixtures" / "invalid"
        diags = run_lint(
            [str(fixture / "spec002_bad_values.json")],
            select=["SPEC"],
            with_self_check=False,
        )
        assert diags and {d.rule for d in diags} == {"SPEC002"}


class TestLintCommand:
    def test_clean_tree_exits_zero(self, capsys):
        rc = main(["lint", str(PACKAGE_DIR)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no findings" in out

    def test_default_path_is_package_tree(self, capsys):
        rc = main(["lint"])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out

    def test_broken_file_exits_nonzero_with_text_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "ml" / "bad.py"
        bad.parent.mkdir()
        bad.write_text(FIXTURE.read_text())
        rc = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        for rule in ("DET001", "EXC001", "FLT001", "MUT001", "TIM001"):
            assert f"error[{rule}]" in out

    def test_json_format_is_parseable_and_stable_schema(self, tmp_path, capsys):
        bad = tmp_path / "ml" / "bad.py"
        bad.parent.mkdir()
        bad.write_text(FIXTURE.read_text())
        rc = main(["lint", "--format", "json", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["format"] == "repro.lint"
        assert payload["version"] == 1
        assert payload["counts"]["error"] == len(payload["diagnostics"])
        rules = {d["rule"] for d in payload["diagnostics"]}
        assert {"DET001", "EXC001", "FLT001", "MUT001", "TIM001"} <= rules

    def test_select_restricts_output(self, tmp_path, capsys):
        bad = tmp_path / "ml" / "bad.py"
        bad.parent.mkdir()
        bad.write_text(FIXTURE.read_text())
        rc = main(["lint", "--select", "DET001", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DET001" in out
        assert "MUT001" not in out

    def test_no_self_check_flag(self, capsys):
        rc = main(["lint", "--no-self-check", str(PACKAGE_DIR / "errors.py")])
        assert rc == 0

    def test_warning_only_findings_exit_zero(self, tmp_path, capsys):
        # IR005 (dead configuration) is a warning: surfaced but not fatal.
        from repro.analysis import find_dead_configurations, has_errors
        from repro.hw.specs import make_v100_spec
        from repro.kernels.ir import KernelLaunch, KernelSpec

        launch = KernelLaunch(
            KernelSpec(name="tiny", float_add=1.0, global_access=100.0), threads=32
        )
        diags = find_dead_configurations([launch], make_v100_spec())
        assert diags and not has_errors(diags)
