"""The RecordSpec base: a spec dataclass laid out by its RecordSchema."""

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

from repro.errors import SpecError, SpecValidationError
from repro.specs import (
    CampaignSpec,
    EngineSpec,
    FieldSpec,
    FleetJobType,
    FleetSpec,
    LifecycleSpec,
    ObjectiveRef,
    RecordSchema,
    RecordSpec,
    ScenarioSpec,
    SweepSpec,
    record_field,
)

PART = RecordSchema(
    kind="part",
    fields=(FieldSpec("label", "str", required=True), FieldSpec("sizes", "list", default=[])),
)
LIMITS = RecordSchema(
    kind="limits",
    fields=(
        FieldSpec("cap", "number", required=True),
        FieldSpec("soft", "bool", default=False),
    ),
)
WIDGET = RecordSchema(
    kind="widget spec",
    format="test.widget",
    version=1,
    fields=(
        FieldSpec("name", "str", required=True),
        FieldSpec("colour", "any", default="red"),
        FieldSpec("parts", "list", default=[], element=FieldSpec("part", "object", schema=PART)),
        FieldSpec("limits", "object", default=None, allow_none=True, schema=LIMITS),
        FieldSpec("note", "str", default=None, allow_none=True),
    ),
)


@dataclass(frozen=True)
class Part(RecordSpec, schema=PART):
    label: str = record_field("label")
    sizes: Tuple[int, ...] = record_field("sizes", ())


@dataclass(frozen=True)
class Widget(RecordSpec, schema=WIDGET):
    name: str = record_field("name")
    parts: Tuple[Part, ...] = record_field("parts", (), of=Part)
    cap: float = record_field("limits.cap", 0.0, key=True)
    soft: bool = record_field("limits.soft", False)
    note: Optional[str] = record_field("note", None, optional=True)
    colour: str = "red"
    base_dir: Optional[str] = dataclasses.field(default=None, compare=False)

    def as_record(self):
        record = super().as_record()
        record["colour"] = self.colour
        return record

    @classmethod
    def from_clean(cls, clean, base_dir=None):
        return super().from_clean(clean, base_dir, colour=clean["colour"])


class TestBase:
    def test_record_follows_schema_order_with_envelope(self):
        widget = Widget(name="w", parts=(Part("a", (1, 2)),), cap=2.0, note="n")
        assert json.dumps(widget.as_record()) == json.dumps(
            {
                "format": "test.widget",
                "schema_version": 1,
                "name": "w",
                "colour": "red",
                "parts": [{"label": "a", "sizes": [1, 2]}],
                "limits": {"cap": 2.0, "soft": False},
                "note": "n",
            }
        )

    def test_key_field_at_default_writes_the_group_as_null(self):
        record = Widget(name="w", soft=True).as_record()
        assert record["limits"] is None
        assert "note" not in record

    def test_key_field_at_default_reads_the_group_as_absent(self):
        widget = Widget.from_record(
            {"format": "test.widget", "schema_version": 1, "name": "w",
             "limits": {"cap": 0.0, "soft": True}}
        )
        assert widget.soft is False

    def test_round_trip_converts_lists_and_nested_specs(self):
        widget = Widget(name="w", parts=(Part("a", (1, 2)), Part("b")), cap=1.5, soft=True)
        again = Widget.from_record(json.loads(json.dumps(widget.as_record())))
        assert again == widget
        assert isinstance(again.parts[0].sizes, tuple)
        assert again.fingerprint() == widget.fingerprint()

    def test_a_custom_key_keeps_its_schema_position(self):
        widget = Widget.from_record(
            {"format": "test.widget", "schema_version": 1, "name": "w", "colour": "blue"}
        )
        assert widget.colour == "blue"
        assert list(widget.as_record())[2:4] == ["name", "colour"]

    def test_from_record_collects_every_error(self):
        with pytest.raises(SpecValidationError) as err:
            Widget.from_record({"format": "test.widget", "schema_version": 1, "parts": [{}]})
        assert "name" in str(err.value) and "label" in str(err.value)
        assert all(d.file == "<widget spec>" for d in err.value.diagnostics)

    def test_load_reads_through_the_shared_reader(self, tmp_path):
        path = tmp_path / "widget.json"
        path.write_text(json.dumps(Widget(name="w").as_record()))
        assert Widget.load(path) == Widget(name="w")
        with pytest.raises(SpecError, match="cannot read widget spec"):
            Widget.load(tmp_path / "absent.json")


SPEC_CLASSES = [
    SweepSpec, EngineSpec, CampaignSpec, FleetJobType, FleetSpec, LifecycleSpec,
    ObjectiveRef, ScenarioSpec,
]


def _schema_field(schema, path):
    for name in path.split("."):
        fs = {f.name: f for f in schema.fields}[name]
        schema = fs.schema
    return fs


@pytest.mark.parametrize("cls", SPEC_CLASSES, ids=lambda c: c.__name__)
def test_record_paths_name_schema_fields_with_matching_defaults(cls):
    for f in dataclasses.fields(cls):
        if "path" not in f.metadata:
            continue
        fs = _schema_field(cls.schema, f.metadata["path"])
        if not (fs.required or f.metadata["of"] or f.default is dataclasses.MISSING):
            assert f.default == fs.default, f.name
