"""Declarative, versioned record schemas for JSON spec artifacts.

Every configuration artifact the toolchain consumes — campaign configs,
fault plans, device-spec tables, scenario specs, registry manifests — is
described here as data: a :class:`RecordSchema` listing typed
:class:`FieldSpec` entries plus an envelope (``format`` tag and
``schema_version``). Validation walks the schema and *collects*
:class:`repro.analysis.diagnostics.Diagnostic` records instead of
raising on the first problem, which is what lets ``repro lint`` report
every defect of a spec file in one pass and lets loaders raise a single
:class:`repro.errors.SpecValidationError` carrying the full list.

Rule family (catalogued in ``docs/static-analysis.md``):

- ``SPEC001`` — unknown / missing / duplicated fields, wrong ``format``;
- ``SPEC002`` — type and range violations (negative frequencies,
  impossible retry budgets, non-finite numbers);
- ``SPEC003`` — dangling cross-references (unknown fault kinds, devices,
  apps, objectives, unresolvable files or registry models);
- ``SPEC004`` — dimensional errors on quantity-valued fields, checked
  with :mod:`repro.analysis.dimensional` (a memory frequency in watts is
  a bug the JSON type system cannot see);
- ``SPEC005`` — versioning: unknown or future ``schema_version``,
  deprecated field spellings (auto-migrated with a warning when safe).

Quantity-valued fields are written as ``{"value": 1107, "unit": "MHz"}``
and are normalized into the schema's canonical unit on load, so a device
table may freely say ``{"value": 1.107, "unit": "GHz"}``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.dimensional import DimensionError, quantity
from repro.errors import SpecError, SpecValidationError

__all__ = [
    "SPEC_FIELDS",
    "SPEC_VALUE",
    "SPEC_XREF",
    "SPEC_UNIT",
    "SPEC_VERSION",
    "SPEC_RULE_IDS",
    "Reporter",
    "FieldSpec",
    "RecordSchema",
    "RecordSpec",
    "record_field",
    "as_plain",
    "as_frozen",
    "load_clean",
    "read_spec_file",
]

#: Unknown / missing / extra fields, wrong format tag.
SPEC_FIELDS = "SPEC001"
#: Type and range violations.
SPEC_VALUE = "SPEC002"
#: Cross-reference integrity (names, files, registry models).
SPEC_XREF = "SPEC003"
#: Dimensional consistency of quantity fields.
SPEC_UNIT = "SPEC004"
#: Schema-version and migration issues.
SPEC_VERSION = "SPEC005"

#: Every rule id the spec checkers can emit.
SPEC_RULE_IDS: Tuple[str, ...] = (
    SPEC_FIELDS,
    SPEC_VALUE,
    SPEC_XREF,
    SPEC_UNIT,
    SPEC_VERSION,
)

#: Value kinds a FieldSpec can declare.
_KINDS = ("int", "number", "str", "bool", "list", "object", "map", "quantity", "any")


class Reporter:
    """Accumulates diagnostics against one logical file/location."""

    def __init__(self, file: str = "<spec>") -> None:
        self.file = file
        self.diagnostics: List[Diagnostic] = []

    def report(self, rule: str, message: str, severity: Severity) -> None:
        """Record one finding."""
        self.diagnostics.append(
            Diagnostic(rule=rule, severity=severity, message=message, file=self.file)
        )

    def error(self, rule: str, message: str) -> None:
        """Record an error-severity finding."""
        self.report(rule, message, Severity.ERROR)

    def warning(self, rule: str, message: str) -> None:
        """Record a warning-severity finding."""
        self.report(rule, message, Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        """True once any error-severity diagnostic has been recorded."""
        return any(d.severity is Severity.ERROR for d in self.diagnostics)


@dataclass(frozen=True)
class FieldSpec:
    """One typed field of a record schema.

    Parameters
    ----------
    name:
        JSON key (also used, dotted, in diagnostic messages).
    kind:
        One of ``int``, ``number``, ``str``, ``bool``, ``list``,
        ``object`` (nested :class:`RecordSchema`), ``map`` (string keys,
        uniform values), ``quantity`` (``{"value", "unit"}`` object
        normalized to ``unit``), or ``any`` (validated by the caller).
    required:
        Missing required fields are ``SPEC001`` errors; optional fields
        fall back to ``default``.
    minimum / maximum / exclusive_minimum:
        Range constraints (``SPEC002``); for quantities the range applies
        to the value *after* conversion into the canonical unit.
    choices / choices_rule:
        Closed vocabulary; violations emit ``choices_rule`` (``SPEC002``
        by default, ``SPEC003`` for cross-reference vocabularies such as
        fault kinds or device names).
    unit:
        Canonical unit for ``quantity`` fields (``SPEC004`` on mismatch).
    element:
        Element spec for ``list``/``map`` values.
    schema:
        Nested schema for ``object`` fields.
    min_len / max_len:
        Length constraints for ``list`` fields.
    allow_none:
        Accept JSON ``null`` (the cleaned value is ``None``).
    """

    name: str
    kind: str
    required: bool = False
    default: Any = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    exclusive_minimum: bool = False
    choices: Optional[Tuple[Any, ...]] = None
    choices_rule: str = SPEC_VALUE
    unit: Optional[str] = None
    element: Optional["FieldSpec"] = None
    schema: Optional["RecordSchema"] = None
    min_len: Optional[int] = None
    max_len: Optional[int] = None
    allow_none: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "quantity" and self.unit is None:
            raise ValueError(f"quantity field {self.name!r} needs a canonical unit")
        if self.kind == "object" and self.schema is None:
            raise ValueError(f"object field {self.name!r} needs a nested schema")


def _check_range(fs: FieldSpec, value: float, rep: Reporter, path: str) -> bool:
    ok = True
    if fs.minimum is not None:
        if fs.exclusive_minimum and value <= fs.minimum:
            rep.error(SPEC_VALUE, f"{path}: must be > {fs.minimum:g}, got {value!r}")
            ok = False
        elif not fs.exclusive_minimum and value < fs.minimum:
            rep.error(SPEC_VALUE, f"{path}: must be >= {fs.minimum:g}, got {value!r}")
            ok = False
    if fs.maximum is not None and value > fs.maximum:
        rep.error(SPEC_VALUE, f"{path}: must be <= {fs.maximum:g}, got {value!r}")
        ok = False
    return ok


def _check_choices(fs: FieldSpec, value: Any, rep: Reporter, path: str) -> bool:
    if fs.choices is not None and value not in fs.choices:
        rep.error(
            fs.choices_rule,
            f"{path}: unknown value {value!r}; expected one of {tuple(fs.choices)}",
        )
        return False
    return True


def _validate_quantity(
    fs: FieldSpec, value: Any, rep: Reporter, path: str
) -> Tuple[Any, bool]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        # Bare numbers are accepted as already-canonical (the common
        # hand-written shorthand) but the explicit form is preferred.
        magnitude = float(value)
        if not math.isfinite(magnitude):
            rep.error(SPEC_VALUE, f"{path}: must be finite, got {value!r}")
            return None, False
        return (magnitude, True) if _check_range(fs, magnitude, rep, path) else (None, False)
    if not isinstance(value, Mapping):
        rep.error(
            SPEC_VALUE,
            f"{path}: expected a quantity object {{'value', 'unit'}} or a bare "
            f"number in {fs.unit}, got {type(value).__name__}",
        )
        return None, False
    extra = sorted(set(value) - {"value", "unit"})
    if extra:
        rep.error(SPEC_FIELDS, f"{path}: unknown quantity field(s) {extra}")
        return None, False
    if "value" not in value or "unit" not in value:
        rep.error(SPEC_FIELDS, f"{path}: quantity needs both 'value' and 'unit'")
        return None, False
    raw, unit = value["value"], value["unit"]
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not math.isfinite(raw):
        rep.error(SPEC_VALUE, f"{path}: quantity value must be a finite number, got {raw!r}")
        return None, False
    if not isinstance(unit, str):
        rep.error(SPEC_UNIT, f"{path}: quantity unit must be a string, got {unit!r}")
        return None, False
    try:
        q = quantity(float(raw), unit)
    except DimensionError as exc:
        rep.error(SPEC_UNIT, f"{path}: {exc}")
        return None, False
    if not q.has_unit(fs.unit):
        rep.error(
            SPEC_UNIT,
            f"{path}: unit {unit!r} is not compatible with {fs.unit!r} "
            f"(dimension mismatch)",
        )
        return None, False
    # Same-unit values pass through untouched: a round trip through the
    # base unit (e.g. ns -> s -> ns) would perturb the magnitude in the
    # last float bit and break record-level round-trip identity.
    magnitude = float(raw) if unit == fs.unit else float(q.to(fs.unit))
    return (magnitude, True) if _check_range(fs, magnitude, rep, path) else (None, False)


def _validate_value(
    fs: FieldSpec, value: Any, rep: Reporter, path: str
) -> Tuple[Any, bool]:
    """Validate one value against ``fs``; returns ``(cleaned, ok)``."""
    if value is None:
        if fs.allow_none:
            return None, True
        rep.error(SPEC_VALUE, f"{path}: must not be null")
        return None, False
    if fs.kind == "any":
        return value, True
    if fs.kind == "bool":
        if not isinstance(value, bool):
            rep.error(SPEC_VALUE, f"{path}: expected a boolean, got {value!r}")
            return None, False
        return value, True
    if fs.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            rep.error(
                SPEC_VALUE,
                f"{path}: expected an integer, got {type(value).__name__} {value!r}",
            )
            return None, False
        return (
            (int(value), True)
            if _check_range(fs, value, rep, path) and _check_choices(fs, value, rep, path)
            else (None, False)
        )
    if fs.kind == "number":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            rep.error(
                SPEC_VALUE,
                f"{path}: expected a number, got {type(value).__name__} {value!r}",
            )
            return None, False
        if not math.isfinite(value):
            rep.error(SPEC_VALUE, f"{path}: must be finite, got {value!r}")
            return None, False
        return (float(value), True) if _check_range(fs, value, rep, path) else (None, False)
    if fs.kind == "str":
        if not isinstance(value, str):
            rep.error(
                SPEC_VALUE,
                f"{path}: expected a string, got {type(value).__name__} {value!r}",
            )
            return None, False
        return (value, True) if _check_choices(fs, value, rep, path) else (None, False)
    if fs.kind == "quantity":
        return _validate_quantity(fs, value, rep, path)
    if fs.kind == "list":
        if not isinstance(value, (list, tuple)):
            rep.error(
                SPEC_VALUE,
                f"{path}: expected a list, got {type(value).__name__} {value!r}",
            )
            return None, False
        if fs.min_len is not None and len(value) < fs.min_len:
            rep.error(SPEC_VALUE, f"{path}: needs at least {fs.min_len} element(s)")
            return None, False
        if fs.max_len is not None and len(value) > fs.max_len:
            rep.error(SPEC_VALUE, f"{path}: allows at most {fs.max_len} element(s)")
            return None, False
        if fs.element is None:
            return list(value), True
        out: List[Any] = []
        ok = True
        for i, item in enumerate(value):
            cleaned, item_ok = _validate_value(fs.element, item, rep, f"{path}[{i}]")
            ok = ok and item_ok
            out.append(cleaned)
        return (out, True) if ok else (None, False)
    if fs.kind == "map":
        if not isinstance(value, Mapping):
            rep.error(
                SPEC_VALUE,
                f"{path}: expected an object, got {type(value).__name__} {value!r}",
            )
            return None, False
        cleaned_map: Dict[str, Any] = {}
        ok = True
        for key in sorted(value, key=str):
            if not isinstance(key, str):
                rep.error(SPEC_VALUE, f"{path}: keys must be strings, got {key!r}")
                ok = False
                continue
            if fs.element is None:
                cleaned_map[key] = value[key]
                continue
            cleaned, item_ok = _validate_value(
                fs.element, value[key], rep, f"{path}[{key!r}]"
            )
            ok = ok and item_ok
            cleaned_map[key] = cleaned
        return (cleaned_map, True) if ok else (None, False)
    # fs.kind == "object"
    assert fs.schema is not None
    if not isinstance(value, Mapping):
        rep.error(
            SPEC_VALUE,
            f"{path}: expected an object, got {type(value).__name__} {value!r}",
        )
        return None, False
    before = rep.has_errors
    cleaned_obj = fs.schema.validate_body(value, rep, path=path)
    return cleaned_obj, (cleaned_obj is not None and (before or not rep.has_errors))


@dataclass(frozen=True)
class RecordSchema:
    """A versioned record layout: envelope + typed fields + extra checks.

    Parameters
    ----------
    kind:
        Human name used in diagnostics (``"fault plan"``, ...).
    fields:
        The field specs; anything else in the record is a ``SPEC001``.
    format:
        Expected envelope ``format`` tag; ``None`` for nested records
        that carry no envelope of their own.
    version:
        Current ``schema_version``. Records with an older version are run
        through ``migrations`` (with a ``SPEC005`` warning) when a
        migration is registered, rejected otherwise.
    version_aliases:
        Deprecated envelope keys accepted (with a warning) in place of
        ``schema_version`` — e.g. the fault plan's historical ``version``.
    version_required:
        A record with neither ``schema_version`` nor an alias is a
        ``SPEC005`` error, instead of a warning that assumes ``version``.
    renamed:
        Deprecated field spellings, ``old -> new``; auto-migrated with a
        ``SPEC005`` warning.
    migrations:
        ``{from_version: fn(body) -> body}`` upgrade steps.
    extra_check:
        Cross-field hook, called with ``(clean, reporter, path)`` only
        when the record is structurally clean so far.
    """

    kind: str
    fields: Tuple[FieldSpec, ...]
    format: Optional[str] = None
    version: Optional[int] = None
    version_aliases: Tuple[str, ...] = ()
    version_required: bool = False
    renamed: Mapping[str, str] = field(default_factory=dict)
    migrations: Mapping[int, Callable[[Dict[str, Any]], Dict[str, Any]]] = field(
        default_factory=dict
    )
    extra_check: Optional[Callable[[Dict[str, Any], Reporter, str], None]] = None

    def field_names(self) -> Tuple[str, ...]:
        """Declared field names, in declaration order."""
        return tuple(f.name for f in self.fields)

    def defaults(self) -> Dict[str, Any]:
        """``{name: default}`` for every field: the clean form of an omitted group."""
        return {f.name: f.default for f in self.fields}

    # ------------------------------------------------------------------
    def validate(
        self, record: Any, file: str = "<spec>"
    ) -> Tuple[Optional[Dict[str, Any]], List[Diagnostic]]:
        """Validate ``record``; returns ``(clean_or_None, diagnostics)``.

        ``clean`` is ``None`` exactly when any error-severity diagnostic
        was collected; warnings (deprecations, migrations) leave the
        cleaned record usable.
        """
        rep = Reporter(file)
        clean = self._validate_top(record, rep)
        if rep.has_errors:
            clean = None
        return clean, rep.diagnostics

    def _validate_top(self, record: Any, rep: Reporter) -> Optional[Dict[str, Any]]:
        if not isinstance(record, Mapping):
            rep.error(
                SPEC_VALUE,
                f"{self.kind} must be a JSON object, got {type(record).__name__}",
            )
            return None
        body = dict(record)
        if self.format is not None:
            fmt = body.pop("format", None)
            if fmt is None:
                rep.error(
                    SPEC_FIELDS,
                    f"missing 'format' tag (expected {self.format!r})",
                )
            elif fmt != self.format:
                rep.error(
                    SPEC_FIELDS,
                    f"not a {self.kind}: format {fmt!r} (expected {self.format!r})",
                )
                return None
        if self.version is not None:
            body = self._apply_version(body, rep)
            if body is None:
                return None
        return self.validate_body(body, rep, path="")

    def _apply_version(
        self, body: Dict[str, Any], rep: Reporter
    ) -> Optional[Dict[str, Any]]:
        version = body.pop("schema_version", None)
        if version is None:
            for alias in self.version_aliases:
                if alias in body:
                    version = body.pop(alias)
                    rep.warning(
                        SPEC_VERSION,
                        f"deprecated envelope key {alias!r}; use 'schema_version'",
                    )
                    break
        if version is None:
            if self.version_required:
                rep.error(SPEC_VERSION, f"{self.kind} has no 'schema_version'")
                return None
            rep.warning(
                SPEC_VERSION,
                f"missing 'schema_version'; assuming current version {self.version}",
            )
            return body
        if isinstance(version, bool) or not isinstance(version, int):
            rep.error(
                SPEC_VERSION, f"schema_version must be an integer, got {version!r}"
            )
            return None
        while version < self.version:
            migrate = self.migrations.get(version)
            if migrate is None:
                rep.error(
                    SPEC_VERSION,
                    f"unsupported {self.kind} schema_version {version} "
                    f"(this build reads {self.version}; no migration registered)",
                )
                return None
            body = migrate(dict(body))
            rep.warning(
                SPEC_VERSION,
                f"auto-migrated {self.kind} from schema_version {version} "
                f"to {version + 1}",
            )
            version += 1
        if version != self.version:
            rep.error(
                SPEC_VERSION,
                f"unsupported {self.kind} schema_version {version!r} "
                f"(this build reads {self.version})",
            )
            return None
        return body

    def validate_body(
        self, body: Mapping[str, Any], rep: Reporter, path: str = ""
    ) -> Optional[Dict[str, Any]]:
        """Validate envelope-less field content (used for nested objects)."""
        if not isinstance(body, Mapping):
            rep.error(
                SPEC_VALUE,
                f"{path or self.kind}: expected an object, got {type(body).__name__}",
            )
            return None
        data = dict(body)
        prefix = f"{path}." if path else ""
        for old in sorted(self.renamed):
            new = self.renamed[old]
            if old in data:
                if new in data:
                    rep.error(
                        SPEC_FIELDS,
                        f"{prefix}{old}: deprecated spelling duplicates {new!r}",
                    )
                else:
                    rep.warning(
                        SPEC_VERSION,
                        f"{prefix}{old}: deprecated field; renamed to {new!r}",
                    )
                    data[new] = data.pop(old)
        known = set(self.field_names())
        for key in sorted(set(data) - known, key=str):
            where = f" (in {path})" if path else ""
            rep.error(
                SPEC_FIELDS, f"unknown {self.kind} field {key!r}{where}"
            )
        clean: Dict[str, Any] = {}
        for fs in self.fields:
            fpath = f"{prefix}{fs.name}"
            if fs.name not in data:
                if fs.required:
                    rep.error(
                        SPEC_FIELDS,
                        f"{self.kind} is missing required field {fpath!r}",
                    )
                else:
                    clean[fs.name] = fs.default
                continue
            cleaned, ok = _validate_value(fs, data[fs.name], rep, fpath)
            clean[fs.name] = cleaned if ok else fs.default
        if self.extra_check is not None and not rep.has_errors:
            self.extra_check(clean, rep, path)
        return clean


def load_clean(
    schema: RecordSchema, record: Any, file: str = "<spec>"
) -> Dict[str, Any]:
    """Validate and return the cleaned record or raise with *all* errors.

    The raising counterpart of :meth:`RecordSchema.validate` used by
    loaders (:class:`~repro.faults.plan.FaultPlan`, the campaign/scenario
    loaders): collects every diagnostic first, then raises one
    :class:`repro.errors.SpecValidationError` carrying the lot.
    """
    clean, diags = schema.validate(record, file=file)
    if clean is None:
        raise SpecValidationError(schema.kind, diags)
    return clean


def read_spec_file(path: Union[str, pathlib.Path], what: str = "spec") -> Any:
    """Read and parse one spec JSON file: the one place spec files are read.

    Raises :class:`SpecError` naming ``what`` and the path, with the
    original error chained as ``__cause__``: an ``OSError`` when the file
    cannot be read, a ``ValueError`` when its bytes are not UTF-8 or not
    JSON, or when the path holds a NUL byte (no file is named so; a spec
    reference can be).
    """
    p = pathlib.Path(path)
    try:
        data = p.read_bytes()
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read {what} {p}: {exc}") from exc
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise SpecError(f"{what} {p} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# spec dataclasses laid out by their schema
# ---------------------------------------------------------------------------
def record_field(
    path: str,
    default: Any = dataclasses.MISSING,
    *,
    key: bool = False,
    optional: bool = False,
    of: Optional[type] = None,
) -> Any:
    """A :class:`RecordSpec` dataclass field stored at dotted ``path``.

    ``key`` marks the field that says whether its enclosing group is
    there: the group is written as ``null``, and read back as absent,
    exactly when this field holds its default. ``optional`` leaves the
    key out of the record while the field holds its default. ``of`` is
    the :class:`RecordSpec` class a nested record, or each element of a
    list of them, is read into.
    """
    return field(
        default=default,
        metadata={"path": path, "key": key, "optional": optional, "of": of},
    )


def as_plain(value: Any) -> Any:
    """Record form of a field value: tuples become lists, specs their records."""
    if isinstance(value, (tuple, list)):
        return [as_plain(v) for v in value]
    if hasattr(value, "as_record"):
        return value.as_record()
    return value


def as_frozen(value: Any, of: Optional[type] = None) -> Any:
    """Field form of a cleaned record value: lists become tuples, and
    records become instances of the :class:`RecordSpec` class ``of``."""
    if isinstance(value, list):
        return tuple(as_frozen(v, of) for v in value)
    if of is not None and value is not None:
        return of.from_clean(value)
    return value


def _parent(path: str) -> str:
    return path.rpartition(".")[0]


@functools.lru_cache(maxsize=None)
def _layout(cls: type) -> Tuple[Dict[str, Any], frozenset, Dict[str, Any]]:
    """``({path: field}, group paths, {keyed group: its key field})``."""
    by_path = {
        f.metadata["path"]: f for f in dataclasses.fields(cls) if "path" in f.metadata
    }
    groups = {path.rsplit(".", i)[0] for path in by_path for i in range(1, path.count(".") + 1)}
    keys = {_parent(path): f for path, f in by_path.items() if f.metadata["key"]}
    return by_path, frozenset(groups), keys


class RecordSpec:
    """Base of the frozen spec dataclasses whose record layout is their schema.

    A subclass names its schema as a class argument
    (``class FleetSpec(RecordSpec, schema=FLEET_SCHEMA)``) and declares
    each dataclass field with :func:`record_field` and its dotted record
    path. From that the base derives the canonical record (keys in
    schema order, envelope included when the schema has a ``format``),
    the build from a cleaned record, validation, file loading and the
    fingerprint. A subclass overrides :meth:`as_record` or
    :meth:`from_clean` only for a record key whose shape is not a field
    path; the base writes such keys as ``None`` for it to fill in.
    """

    schema: RecordSchema

    def __init_subclass__(cls, schema: Optional[RecordSchema] = None, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if schema is not None:
            cls.schema = schema

    # ------------------------------------------------------------------
    def as_record(self) -> Dict[str, Any]:
        """Canonical plain-dict form (inverse of :meth:`from_record`)."""
        record: Dict[str, Any] = {}
        if self.schema.format is not None:
            record["format"] = self.schema.format
            record["schema_version"] = self.schema.version
        record.update(self._group_record(self.schema, ""))
        return record

    def _group_record(self, schema: RecordSchema, prefix: str) -> Dict[str, Any]:
        by_path, groups, keys = _layout(type(self))
        out: Dict[str, Any] = {}
        for fs in schema.fields:
            path = prefix + fs.name
            f = by_path.get(path)
            key = keys.get(path)
            if f is not None:
                value = getattr(self, f.name)
                if not (f.metadata["optional"] and value == f.default):
                    out[fs.name] = as_plain(value)
            elif path in groups and (key is None or getattr(self, key.name) != key.default):
                out[fs.name] = self._group_record(fs.schema, path + ".")
            else:
                out[fs.name] = None
        return out

    def fingerprint(self) -> str:
        """Stable content hash of the canonical record."""
        from repro.runtime.seeding import stable_digest

        return stable_digest(self.as_record())

    # ------------------------------------------------------------------
    @classmethod
    def from_clean(
        cls, clean: Mapping[str, Any], base_dir: Optional[str] = None, **custom: Any
    ) -> Any:
        """Build from a record cleaned by :attr:`schema`.

        ``custom`` gives the fields whose record shape is not a path. A
        group that is ``null``, or whose key field holds its default,
        leaves all of its fields at their defaults.
        """
        by_path, _, keys = _layout(cls)
        absent = [
            group
            for group, key in keys.items()
            if _lookup(clean, key.metadata["path"]) == key.default
        ]
        kwargs = dict(custom)
        for path, f in by_path.items():
            value = _lookup(clean, path)
            if not (
                f.name in custom
                or value is _MISSING
                or any(path.startswith(group + ".") for group in absent)
            ):
                kwargs[f.name] = as_frozen(value, f.metadata["of"])
        if base_dir is not None:
            kwargs["base_dir"] = base_dir
        return cls(**kwargs)

    @classmethod
    def from_record(
        cls, record: Any, file: Optional[str] = None, base_dir: Optional[str] = None
    ) -> Any:
        """Validate + build; raises :class:`SpecValidationError` with *all* errors."""
        clean = load_clean(cls.schema, record, file=file or f"<{cls.schema.kind}>")
        return cls.from_clean(clean, base_dir=base_dir)

    @classmethod
    def load(cls, path: Union[str, pathlib.Path]) -> Any:
        """Read + validate a spec file; references resolve against its directory."""
        p = pathlib.Path(path)
        record = read_spec_file(p, cls.schema.kind)
        return cls.from_record(record, file=str(p), base_dir=str(p.parent))


_MISSING = object()


def _lookup(clean: Mapping[str, Any], path: str) -> Any:
    """The value at dotted ``path``; ``_MISSING`` below a ``null`` group."""
    node: Any = clean
    for part in path.split("."):
        if node is None:
            return _MISSING
        node = node[part]
    return node
