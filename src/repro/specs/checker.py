"""Static checker for JSON spec artifacts: the SPEC0xx lint pass.

:func:`check_json_file` is what ``repro lint`` calls for ``.json``
inputs: it dispatches on the envelope ``format`` tag to the right
schema, follows cross-file references (a scenario's campaign, a
campaign's device table, a fault-plan path) and verifies registry-model
references resolve — all **before any compute runs**. Unrecognized JSON
files found while walking a directory are skipped silently (a directory
full of datasets is not an error); explicitly named files must be
recognizable specs. :data:`SPEC_FORMATS` is the one table of formats:
it feeds this dispatch, :data:`KNOWN_SPEC_FORMATS` and ``repro run``.
"""

from __future__ import annotations

import pathlib
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.errors import SpecError
from repro.faults.plan import PLAN_FORMAT
from repro.specs.campaign import (
    CAMPAIGN_FORMAT,
    CAMPAIGN_SCHEMA,
    CampaignSpec,
)
from repro.specs.device_table import (
    DEVICE_TABLE_FORMAT,
    check_device_table,
)
from repro.specs.fault_plan import FAULT_PLAN_SCHEMA
from repro.specs.fleet import FLEET_FORMAT, FLEET_SCHEMA, FleetSpec
from repro.specs.lifecycle import LIFECYCLE_FORMAT, LIFECYCLE_SCHEMA, LifecycleSpec
from repro.specs.scenario import (
    SCENARIO_FORMAT,
    SCENARIO_SCHEMA,
    ScenarioSpec,
    resolve_ref,
)
from repro.specs.schema import (
    SPEC_FIELDS,
    SPEC_XREF,
    FieldSpec,
    RecordSchema,
    read_spec_file,
)

__all__ = [
    "MANIFEST_SCHEMA",
    "SpecFormat",
    "SPEC_FORMATS",
    "KNOWN_SPEC_FORMATS",
    "RUNNABLE_SPEC_FORMATS",
    "check_record",
    "check_json_file",
    "lint_spec_file",
]

_MANIFEST_FORMAT = "repro.model_manifest"

_MANIFEST_PAYLOAD_SCHEMA = RecordSchema(
    kind="model manifest payload",
    fields=(
        FieldSpec("name", "str", required=True),
        FieldSpec("version", "int", required=True, minimum=1),
        FieldSpec("app", "str", required=True),
        FieldSpec(
            "feature_names",
            "list",
            required=True,
            min_len=1,
            element=FieldSpec("feature name", "str"),
        ),
        FieldSpec(
            "baseline_freq_mhz",
            "number",
            required=True,
            minimum=0.0,
            exclusive_minimum=True,
        ),
        FieldSpec("artifact_sha256", "str", required=True),
        FieldSpec("artifact_bytes", "int", required=True, minimum=1),
        FieldSpec("device_signature_digest", "str", default=None, allow_none=True),
        FieldSpec("train_fingerprint", "str", default=None, allow_none=True),
    ),
)

#: Registry manifest envelope, which ``ModelRegistry`` reads every
#: manifest through. Registries write every manifest versioned and read
#: no other; the historical ``schema`` key is a deprecated alias of
#: ``schema_version``.
MANIFEST_SCHEMA = RecordSchema(
    kind="model manifest",
    format=_MANIFEST_FORMAT,
    version=1,
    version_aliases=("schema",),
    version_required=True,
    fields=(
        FieldSpec("manifest", "object", required=True, schema=_MANIFEST_PAYLOAD_SCHEMA),
        FieldSpec("digest", "str", required=True),
    ),
)


def _error(rule: str, message: str, file: str) -> Diagnostic:
    return Diagnostic(rule=rule, severity=Severity.ERROR, message=message, file=file)


def _read_failure(err: SpecError, file: str) -> Diagnostic:
    """``IO001`` for an unreadable file, ``SYN001`` for bytes that are not JSON."""
    if isinstance(err.__cause__, OSError):
        return _error("IO001", f"cannot read file: {err.__cause__}", file)
    return _error("SYN001", f"file is not valid JSON: {err.__cause__}", file)


def _check_fault_plan(
    record: Any, file: str, base_dir: Optional[str]
) -> List[Diagnostic]:
    _, diags = FAULT_PLAN_SCHEMA.validate(record, file=file)
    return diags


def _check_manifest(
    record: Any, file: str, base_dir: Optional[str]
) -> List[Diagnostic]:
    clean, diags = MANIFEST_SCHEMA.validate(record, file=file)
    if clean is None:
        return diags
    from repro.runtime.seeding import stable_digest

    payload = record.get("manifest")
    if record.get("digest") != stable_digest(payload):
        diags.append(
            _error(
                SPEC_XREF,
                "manifest digest mismatch (tampered or corrupt)",
                file,
            )
        )
    return diags


def _check_referenced_file(
    ref: str,
    expected_format: str,
    what: str,
    file: str,
    base_dir: Optional[str],
) -> List[Diagnostic]:
    """Validate a cross-file reference: exists, parses, right format, clean."""
    path = resolve_ref(ref, base_dir)
    if not path.is_file():
        return [
            _error(
                SPEC_XREF,
                f"{what} {ref!r} not found (resolved to {path})",
                file,
            )
        ]
    try:
        record = read_spec_file(path)
    except SpecError as err:
        return [_read_failure(err, str(path))]
    fmt = record.get("format") if isinstance(record, Mapping) else None
    if fmt != expected_format:
        return [
            _error(
                SPEC_XREF,
                f"{what} {ref!r} has format {fmt!r} "
                f"(expected {expected_format!r})",
                file,
            )
        ]
    return check_record(record, file=str(path), base_dir=str(path.parent))


def _check_campaign(
    record: Any, file: str, base_dir: Optional[str]
) -> List[Diagnostic]:
    clean, diags = CAMPAIGN_SCHEMA.validate(record, file=file)
    if clean is None:
        return diags
    device = clean["device"]
    if isinstance(device, Mapping):
        diags.extend(
            _check_referenced_file(
                device["table"], DEVICE_TABLE_FORMAT, "device table", file, base_dir
            )
        )
    return diags


def _check_scenario(
    record: Any, file: str, base_dir: Optional[str]
) -> List[Diagnostic]:
    clean, diags = SCENARIO_SCHEMA.validate(record, file=file)
    if clean is None:
        return diags
    campaign = clean["campaign"]
    if isinstance(campaign, str):
        diags.extend(
            _check_referenced_file(
                campaign, CAMPAIGN_FORMAT, "campaign spec", file, base_dir
            )
        )
    else:
        diags.extend(_check_campaign(campaign, f"{file}#campaign", base_dir))
    plan = clean["fault_plan"]
    if isinstance(plan, str):
        diags.extend(
            _check_referenced_file(
                plan, PLAN_FORMAT, "fault plan", file, base_dir
            )
        )
    elif plan is not None:
        _, plan_diags = FAULT_PLAN_SCHEMA.validate(plan, file=f"{file}#fault_plan")
        diags.extend(plan_diags)
    objective = clean["objective"]
    if objective is not None and objective["model"] is not None:
        diags.extend(_check_model_ref(objective["model"], file, base_dir))
    return diags


def _check_fleet(
    record: Any, file: str, base_dir: Optional[str]
) -> List[Diagnostic]:
    clean, diags = FLEET_SCHEMA.validate(record, file=file)
    if clean is None:
        return diags
    model = clean["advisor"]["model"]
    if model is not None:
        diags.extend(_check_model_ref(model, file, base_dir))
    return diags


def _check_lifecycle(
    record: Any, file: str, base_dir: Optional[str]
) -> List[Diagnostic]:
    clean, diags = LIFECYCLE_SCHEMA.validate(record, file=file)
    if clean is None:
        return diags
    # Lifecycle model refs are versionless and may not resolve *yet*:
    # the loop bootstraps v1 itself. Unresolvable is a warning, not an
    # error — but a registry that exists with the name registered must
    # still verify (a corrupt manifest is an error today, not later).
    model = clean["model"]
    root = resolve_ref(model["registry"], base_dir)
    from repro.errors import ModelIntegrityError, RegistryError
    from repro.serving.registry import ModelRegistry

    try:
        if root.is_dir():
            ModelRegistry(root).manifest(model["name"], None)
    except ModelIntegrityError as exc:
        diags.append(_error(SPEC_XREF, f"unresolvable model reference: {exc}", file))
    except RegistryError as exc:
        diags.append(
            Diagnostic(
                rule=SPEC_XREF,
                severity=Severity.WARNING,
                message=(
                    f"lifecycle model {model['name']!r} not registered yet "
                    f"({exc}); the loop will bootstrap v1"
                ),
                file=file,
            )
        )
    return diags


def _check_model_ref(
    model: Dict[str, Any], file: str, base_dir: Optional[str]
) -> List[Diagnostic]:
    root = resolve_ref(model["registry"], base_dir)
    if not root.is_dir():
        # A registry that does not exist *yet* is a warning, not an
        # error: scenarios are often authored before the model trains.
        return [
            Diagnostic(
                rule=SPEC_XREF,
                severity=Severity.WARNING,
                message=(
                    f"model registry {model['registry']!r} not found "
                    f"(resolved to {root}); model reference unchecked"
                ),
                file=file,
            )
        ]
    from repro.errors import RegistryError
    from repro.serving.registry import ModelRegistry

    try:
        ModelRegistry(root).manifest(model["name"], model["version"])
    except RegistryError as exc:
        return [_error(SPEC_XREF, f"unresolvable model reference: {exc}", file)]
    return []


def _check_device_table(
    record: Any, file: str, base_dir: Optional[str]
) -> List[Diagnostic]:
    return check_device_table(record, file)


class SpecFormat(NamedTuple):
    """One spec format: its static checker, and the class ``repro run``
    loads its records into (``None`` for a check-only format)."""

    check: Callable[[Any, str, Optional[str]], List[Diagnostic]]
    spec_class: Optional[type] = None


#: Every spec format, by envelope ``format`` tag.
SPEC_FORMATS: Dict[str, SpecFormat] = {
    PLAN_FORMAT: SpecFormat(_check_fault_plan),
    DEVICE_TABLE_FORMAT: SpecFormat(_check_device_table),
    CAMPAIGN_FORMAT: SpecFormat(_check_campaign, CampaignSpec),
    SCENARIO_FORMAT: SpecFormat(_check_scenario, ScenarioSpec),
    FLEET_FORMAT: SpecFormat(_check_fleet, FleetSpec),
    LIFECYCLE_FORMAT: SpecFormat(_check_lifecycle, LifecycleSpec),
    _MANIFEST_FORMAT: SpecFormat(_check_manifest),
}

#: Envelope ``format`` tags the checker recognizes.
KNOWN_SPEC_FORMATS = tuple(sorted(SPEC_FORMATS))

#: The formats ``repro run`` executes; the others are check-only.
RUNNABLE_SPEC_FORMATS = tuple(
    sorted(fmt for fmt, entry in SPEC_FORMATS.items() if entry.spec_class is not None)
)


def _spec_format(record: Any) -> Optional[str]:
    """The record's ``format`` tag if it names a known format, else ``None``.

    A tag that is not a string (a list, an object) is unrecognized too.
    """
    fmt = record.get("format") if isinstance(record, Mapping) else None
    return fmt if isinstance(fmt, str) and fmt in SPEC_FORMATS else None


def check_record(
    record: Any, file: str = "<spec>", base_dir: Optional[str] = None
) -> List[Diagnostic]:
    """Check one already-parsed spec record, dispatching on its format."""
    if not isinstance(record, Mapping):
        return [
            _error(
                "SPEC002",
                f"spec must be a JSON object, got {type(record).__name__}",
                file,
            )
        ]
    fmt = _spec_format(record)
    if fmt is None:
        return [
            _error(
                SPEC_FIELDS,
                f"unrecognized spec format {record.get('format')!r}; known formats: "
                f"{', '.join(KNOWN_SPEC_FORMATS)}",
                file,
            )
        ]
    return SPEC_FORMATS[fmt].check(record, file, base_dir)


def lint_spec_file(
    path: Union[str, pathlib.Path], explicit: bool = False
) -> Tuple[Any, List[Diagnostic]]:
    """Read one ``.json`` file once and lint it: ``(record, diagnostics)``.

    ``record`` is ``None`` when the file cannot be read or parsed, which
    is an ``IO001`` or ``SYN001`` diagnostic rather than an exception.
    ``explicit`` distinguishes a file the user named on the command line
    (must be a recognizable spec) from one found while walking a
    directory (non-spec JSON is silently skipped).
    """
    path = pathlib.Path(path)
    file = str(path).replace("\\", "/")
    try:
        record = read_spec_file(path)
    except SpecError as err:
        return None, [_read_failure(err, file)]
    if _spec_format(record) is not None:
        return record, check_record(record, file=file, base_dir=str(path.parent))
    if not explicit:
        return record, []
    fmt = record.get("format") if isinstance(record, Mapping) else None
    return record, [
        _error(
            SPEC_FIELDS,
            f"not a recognized spec file (format {fmt!r}; known: "
            f"{', '.join(KNOWN_SPEC_FORMATS)})",
            file,
        )
    ]


def check_json_file(
    path: Union[str, pathlib.Path], explicit: bool = False
) -> List[Diagnostic]:
    """Lint one ``.json`` file (the ``repro lint`` entry for JSON inputs).

    See :func:`lint_spec_file`, which also returns the parsed record.
    """
    return lint_spec_file(path, explicit)[1]
