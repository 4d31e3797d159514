"""Composite scenario specs (``format: repro.scenario``).

A scenario binds everything one reproducible experiment needs — a
campaign (inline or referenced by path), an optional fault plan (inline
or by path), an optional serving objective (optionally served from a
registered model), and output artifacts — into a single validated JSON
file that ``repro run`` executes end to end.

References are resolved **relative to the scenario file** and inlined at
load time, so a scenario's canonical record (and therefore its
:meth:`ScenarioSpec.fingerprint`) depends only on the *content* of what
it references, never on where the files happened to live.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.faults.plan import FaultPlan
from repro.serving.objectives import OBJECTIVE_KINDS
from repro.specs.campaign import CampaignSpec
from repro.specs.schema import (
    SPEC_VALUE,
    SPEC_XREF,
    FieldSpec,
    RecordSchema,
    RecordSpec,
    Reporter,
    load_clean,
    record_field,
)

__all__ = [
    "SCENARIO_FORMAT",
    "SCENARIO_VERSION",
    "SCENARIO_SCHEMA",
    "ObjectiveRef",
    "ScenarioSpec",
    "resolve_ref",
]

SCENARIO_FORMAT = "repro.scenario"
SCENARIO_VERSION = 1


_MODEL_REF_SCHEMA = RecordSchema(
    kind="model reference",
    fields=(
        FieldSpec("registry", "str", required=True),
        FieldSpec("name", "str", required=True),
        FieldSpec("version", "int", default=None, allow_none=True, minimum=1),
    ),
)


def _check_objective(clean: Dict[str, Any], rep: Reporter, path: str) -> None:
    prefix = f"{path}." if path else ""
    kind = clean["kind"]
    if kind == "min_energy_deadline" and clean["deadline_s"] is None:
        rep.error(
            SPEC_VALUE, f"{prefix}deadline_s: required by kind 'min_energy_deadline'"
        )
    if kind == "max_speedup_power" and clean["power_w"] is None:
        rep.error(
            SPEC_VALUE, f"{prefix}power_w: required by kind 'max_speedup_power'"
        )
    for param, users in (("deadline_s", ("min_energy_deadline",)), ("power_w", ("max_speedup_power",))):
        if clean[param] is not None and kind not in users:
            rep.warning(
                SPEC_VALUE,
                f"{prefix}{param}: ignored by objective kind {kind!r}",
            )


_OBJECTIVE_SCHEMA = RecordSchema(
    kind="objective",
    fields=(
        FieldSpec(
            "kind",
            "str",
            required=True,
            choices=OBJECTIVE_KINDS,
            choices_rule=SPEC_XREF,
        ),
        FieldSpec(
            "deadline_s",
            "number",
            default=None,
            allow_none=True,
            minimum=0.0,
            exclusive_minimum=True,
        ),
        FieldSpec(
            "power_w",
            "number",
            default=None,
            allow_none=True,
            minimum=0.0,
            exclusive_minimum=True,
        ),
        FieldSpec("model", "object", default=None, allow_none=True, schema=_MODEL_REF_SCHEMA),
    ),
    extra_check=_check_objective,
)

_OUTPUTS_SCHEMA = RecordSchema(
    kind="scenario outputs",
    fields=(FieldSpec("dataset", "str", default=None, allow_none=True),),
)


def _scenario_extra(clean: Dict[str, Any], rep: Reporter, path: str) -> None:
    prefix = f"{path}." if path else ""
    for key in ("campaign", "fault_plan"):
        value = clean.get(key)
        if value is not None and not isinstance(value, (str, Mapping)):
            rep.error(
                SPEC_VALUE,
                f"{prefix}{key}: expected a file path or an inline record, "
                f"got {type(value).__name__}",
            )


SCENARIO_SCHEMA = RecordSchema(
    kind="scenario spec",
    format=SCENARIO_FORMAT,
    version=SCENARIO_VERSION,
    fields=(
        FieldSpec("name", "str", required=True),
        FieldSpec("campaign", "any", required=True),
        FieldSpec("fault_plan", "any", default=None, allow_none=True),
        FieldSpec("objective", "object", default=None, allow_none=True, schema=_OBJECTIVE_SCHEMA),
        FieldSpec("outputs", "object", default=None, allow_none=True, schema=_OUTPUTS_SCHEMA),
    ),
    extra_check=_scenario_extra,
)


def resolve_ref(ref: str, base_dir: Optional[str]) -> pathlib.Path:
    """Resolve a spec-internal file reference against the spec's directory."""
    p = pathlib.Path(ref)
    if not p.is_absolute() and base_dir is not None:
        p = pathlib.Path(base_dir) / p
    return p


@dataclass(frozen=True)
class ObjectiveRef(RecordSpec, schema=_OBJECTIVE_SCHEMA):
    """Declarative objective: kind + parameters + optional model source."""

    kind: str = record_field("kind", "tradeoff")
    deadline_s: Optional[float] = record_field("deadline_s", None)
    power_w: Optional[float] = record_field("power_w", None)
    model_registry: Optional[str] = record_field("model.registry", None, key=True)
    model_name: Optional[str] = record_field("model.name", None)
    model_version: Optional[int] = record_field("model.version", None)

    def to_objective(self):
        """The executable :class:`repro.serving.Objective` this names."""
        from repro.serving.objectives import Objective

        return Objective.from_kind(
            self.kind, deadline_s=self.deadline_s, power_w=self.power_w
        )


@dataclass(frozen=True)
class ScenarioSpec(RecordSpec, schema=SCENARIO_SCHEMA):
    """One validated, runnable scenario (campaign + chaos + objective).

    The canonical record has the campaign and fault plan *inlined*: a
    scenario referencing ``campaign.json`` and the same scenario with
    the campaign pasted inline produce identical records — identity
    follows content, not file layout.
    """

    name: str = record_field("name")
    campaign: CampaignSpec = record_field("campaign")
    fault_plan: Optional[FaultPlan] = record_field("fault_plan", None)
    objective: Optional[ObjectiveRef] = record_field("objective", None, of=ObjectiveRef)
    dataset_output: Optional[str] = record_field("outputs.dataset", None, key=True)
    #: Directory for resolving relative output / registry paths at run
    #: time; excluded from equality (see :class:`CampaignSpec.base_dir`).
    base_dir: Optional[str] = field(default=None, compare=False)

    @classmethod
    def from_record(
        cls,
        record: Any,
        file: str = "<scenario spec>",
        base_dir: Optional[str] = None,
    ) -> "ScenarioSpec":
        """Validate, inline the referenced campaign and fault plan, and build.

        Raises :class:`SpecValidationError` with the full diagnostic list
        on schema violations and :class:`SpecError` on unresolvable
        references.
        """
        clean = load_clean(SCENARIO_SCHEMA, record, file=file)
        campaign, plan = clean["campaign"], clean["fault_plan"]
        if isinstance(campaign, str):
            campaign = CampaignSpec.load(resolve_ref(campaign, base_dir))
        else:
            campaign = CampaignSpec.from_record(
                campaign, file=f"{file}#campaign", base_dir=base_dir
            )
        if isinstance(plan, str):
            plan = FaultPlan.load(resolve_ref(plan, base_dir))
        elif plan is not None:
            plan = FaultPlan.from_record(plan)
        return cls.from_clean(clean, base_dir, campaign=campaign, fault_plan=plan)

    def describe(self) -> str:
        """One-line human summary for run logs."""
        parts = [f"scenario {self.name!r}: {self.campaign.describe()}"]
        if self.fault_plan is not None:
            parts.append(self.fault_plan.describe())
        if self.objective is not None:
            obj = f"objective {self.objective.kind}"
            if self.objective.model_name is not None:
                obj += f" via model {self.objective.model_name}"
            parts.append(obj)
        return "; ".join(parts)
