"""The registry reads manifests through the schema ``repro lint`` checks.

A manifest whose digest still matches its payload used to be parsed by
hand: ``int(1.7)`` read as version 1, ``"abc"`` as the feature names
``('a', 'b', 'c')``, and an unknown field was dropped. Lint rejected the
same files, so the registry served models lint called broken. Each case
below edits a valid manifest and recomputes its digest: ``list``,
``resolve``, ``verify`` and ``repro registry list`` must refuse it with a
``RegistryError`` that names the field.
"""

import json

import pytest

from repro.analysis import has_errors
from repro.cli import main
from repro.errors import RegistryError
from repro.runtime.seeding import stable_digest
from repro.specs import check_record


def _set(key, value):
    def edit(record):
        record["manifest"][key] = value

    return edit


def _set_schema_version(record):
    record["schema_version"] = True


#: name -> (edit of a valid manifest record, the field the error names)
BAD_MANIFESTS = {
    "float-version": (_set("version", 1.7), "manifest.version"),
    "string-version": (_set("version", "1"), "manifest.version"),
    "string-feature-names": (_set("feature_names", "abc"), "manifest.feature_names"),
    "no-feature-names": (_set("feature_names", []), "manifest.feature_names"),
    "unknown-field": (_set("owner", "someone"), "owner"),
    "negative-baseline": (_set("baseline_freq_mhz", -5), "manifest.baseline_freq_mhz"),
    "empty-artifact": (_set("artifact_bytes", 0), "manifest.artifact_bytes"),
    "bool-schema-version": (_set_schema_version, "schema_version"),
    "int-app": (_set("app", 7), "manifest.app"),
}


@pytest.fixture(params=sorted(BAD_MANIFESTS))
def bad(request, registry):
    """``toy:v1`` with one edited manifest field and a recomputed digest."""
    edit, field = BAD_MANIFESTS[request.param]
    path = registry.manifest_path("toy", 1)
    record = json.loads(path.read_text())
    edit(record)
    record["digest"] = stable_digest(record["manifest"])
    path.write_text(json.dumps(record))
    return registry, record, field


def test_lint_rejects_the_manifest(bad):
    _, record, _ = bad
    assert has_errors(check_record(record, file="manifest.json"))


@pytest.mark.parametrize(
    "read",
    [
        lambda registry: registry.list(),
        lambda registry: registry.resolve("toy"),
        lambda registry: registry.manifest("toy", 1),
    ],
    ids=["list", "resolve", "manifest"],
)
def test_reads_raise_a_registry_error_naming_the_field(bad, read):
    registry, _, field = bad
    with pytest.raises(RegistryError, match=field):
        read(registry)


def test_verify_reports_the_field(bad):
    registry, _, field = bad
    [report] = registry.verify()
    assert not report.ok
    assert field in report.error


def test_cli_registry_list_exits_1_naming_the_field(bad, capsys):
    registry, _, field = bad
    assert main(["registry", "list", "--root", str(registry.root)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and field in err


def test_valid_manifest_still_reads(registry):
    assert [m.ref for m in registry.list()] == ["toy:v1"]
    assert [r.ok for r in registry.verify()] == [True]
