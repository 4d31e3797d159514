"""Versioned spec schemas + the SPEC0xx static checker + ``repro run``.

This package makes every configuration artifact the toolchain consumes a
*declarative, checkable* input (ROADMAP item 5): campaign configs, fault
plans, device-spec tables and composite scenario specs all carry a
``format`` tag and a ``schema_version``, validate against declarative
:class:`~repro.specs.schema.RecordSchema` definitions, and canonicalize
through :func:`repro.runtime.seeding.canonical_json` so their
fingerprints participate in the same identity discipline as the result
cache and the model registry.

Three consumer surfaces:

- **Static**: ``repro lint`` feeds ``.json`` files to
  :func:`~repro.specs.checker.check_json_file`, which emits ``SPEC001``–
  ``SPEC005`` diagnostics (see ``docs/static-analysis.md``).
- **Load-time**: :class:`~repro.faults.plan.FaultPlan` and the
  :class:`~repro.specs.schema.RecordSpec` classes (campaign, scenario,
  fleet, lifecycle) validate through the same schemas and raise
  :class:`repro.errors.SpecValidationError` carrying *every* problem
  (collect-then-raise).
- **Execution**: ``repro run SCENARIO.json`` →
  :func:`~repro.specs.run.run_scenario`, bit-identical to the
  equivalent hand-wired ``repro campaign`` invocation.

See ``docs/scenario-specs.md`` for the schema reference.
"""

from repro.specs.campaign import (
    APP_KINDS,
    BUILTIN_DEVICES,
    CAMPAIGN_FORMAT,
    CAMPAIGN_SCHEMA,
    CAMPAIGN_VERSION,
    CampaignSpec,
    EngineSpec,
    SweepSpec,
    campaign_spec_from_cli,
)
from repro.specs.checker import (
    KNOWN_SPEC_FORMATS,
    MANIFEST_SCHEMA,
    RUNNABLE_SPEC_FORMATS,
    SPEC_FORMATS,
    check_json_file,
    check_record,
    lint_spec_file,
)
from repro.specs.device_table import (
    DEVICE_TABLE_FORMAT,
    DEVICE_TABLE_SCHEMA,
    DEVICE_TABLE_VERSION,
    check_device_table,
    device_spec_from_clean,
    device_table_record,
    load_device_table,
)
from repro.specs.fault_plan import (
    FAULT_PLAN_SCHEMA,
    FAULT_SPEC_SCHEMA,
)
from repro.specs.fleet import (
    FLEET_FORMAT,
    FLEET_POLICIES,
    FLEET_SCHEMA,
    FLEET_VERSION,
    FleetJobType,
    FleetSpec,
)
from repro.specs.lifecycle import (
    LIFECYCLE_APP_KINDS,
    LIFECYCLE_FORMAT,
    LIFECYCLE_SCHEMA,
    LIFECYCLE_VERSION,
    LifecycleSpec,
)
from repro.specs.run import (
    AdviceRow,
    ScenarioOutcome,
    build_device,
    build_engine,
    measured_tradeoff,
    run_campaign,
    run_scenario,
)
from repro.specs.scenario import (
    SCENARIO_FORMAT,
    SCENARIO_SCHEMA,
    SCENARIO_VERSION,
    ObjectiveRef,
    ScenarioSpec,
)
from repro.specs.schema import (
    SPEC_FIELDS,
    SPEC_RULE_IDS,
    SPEC_UNIT,
    SPEC_VALUE,
    SPEC_VERSION,
    SPEC_XREF,
    FieldSpec,
    RecordSchema,
    RecordSpec,
    Reporter,
    load_clean,
    read_spec_file,
    record_field,
)

__all__ = [
    # schema framework
    "SPEC_FIELDS",
    "SPEC_VALUE",
    "SPEC_XREF",
    "SPEC_UNIT",
    "SPEC_VERSION",
    "SPEC_RULE_IDS",
    "FieldSpec",
    "RecordSchema",
    "RecordSpec",
    "record_field",
    "Reporter",
    "load_clean",
    "read_spec_file",
    # fault plans
    "FAULT_SPEC_SCHEMA",
    "FAULT_PLAN_SCHEMA",
    # device tables
    "DEVICE_TABLE_FORMAT",
    "DEVICE_TABLE_VERSION",
    "DEVICE_TABLE_SCHEMA",
    "device_spec_from_clean",
    "device_table_record",
    "check_device_table",
    "load_device_table",
    # campaigns
    "CAMPAIGN_FORMAT",
    "CAMPAIGN_VERSION",
    "CAMPAIGN_SCHEMA",
    "APP_KINDS",
    "BUILTIN_DEVICES",
    "SweepSpec",
    "EngineSpec",
    "CampaignSpec",
    "campaign_spec_from_cli",
    # scenarios
    "SCENARIO_FORMAT",
    "SCENARIO_VERSION",
    "SCENARIO_SCHEMA",
    "ObjectiveRef",
    "ScenarioSpec",
    # fleet
    "FLEET_FORMAT",
    "FLEET_VERSION",
    "FLEET_POLICIES",
    "FLEET_SCHEMA",
    "FleetJobType",
    "FleetSpec",
    # lifecycle
    "LIFECYCLE_FORMAT",
    "LIFECYCLE_VERSION",
    "LIFECYCLE_APP_KINDS",
    "LIFECYCLE_SCHEMA",
    "LifecycleSpec",
    # checker
    "SPEC_FORMATS",
    "KNOWN_SPEC_FORMATS",
    "RUNNABLE_SPEC_FORMATS",
    "MANIFEST_SCHEMA",
    "check_record",
    "check_json_file",
    "lint_spec_file",
    # execution
    "AdviceRow",
    "ScenarioOutcome",
    "build_device",
    "build_engine",
    "run_campaign",
    "run_scenario",
    "measured_tradeoff",
]
