"""Schema for fault-plan JSON artifacts (``format: repro.fault_plan``).

The layout mirrors :meth:`repro.faults.plan.FaultPlan.as_record`; the
schema is what :meth:`FaultPlan.from_record` now validates against, so a
hand-written plan with three mistakes reports all three (collect-then-
raise) instead of failing on the first. Historical plans written with a
``version`` envelope key (pre-``schema_version``) load with a ``SPEC005``
deprecation warning.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.faults.plan import CACHE_MODES, FAULT_KINDS, PLAN_FORMAT, PLAN_VERSION
from repro.specs.schema import (
    SPEC_VALUE,
    SPEC_XREF,
    FieldSpec,
    RecordSchema,
    Reporter,
)

__all__ = ["FAULT_SPEC_SCHEMA", "FAULT_PLAN_SCHEMA"]


def _check_can_fire(clean: Dict[str, Any], rep: Reporter, path: str) -> None:
    # Mirrors FaultSpec.__post_init__: a spec with p=0 and no scheduled
    # occurrences would silently do nothing, which is always a mistake.
    if clean["probability"] == 0 and not clean["occurrences"]:
        rep.error(
            SPEC_VALUE,
            f"{path or 'fault spec'}: fault spec can never fire; give it a "
            "probability or explicit occurrences",
        )


FAULT_SPEC_SCHEMA = RecordSchema(
    kind="fault spec",
    fields=(
        FieldSpec("kind", "str", required=True, choices=FAULT_KINDS, choices_rule=SPEC_XREF),
        FieldSpec("probability", "number", default=0.0, minimum=0.0, maximum=1.0),
        FieldSpec(
            "occurrences",
            "list",
            default=(),
            element=FieldSpec("occurrence", "int", minimum=0),
        ),
        FieldSpec("scale", "number", default=8.0, minimum=0.0, exclusive_minimum=True),
        FieldSpec("mode", "str", default="truncate", choices=CACHE_MODES),
    ),
    extra_check=_check_can_fire,
)

FAULT_PLAN_SCHEMA = RecordSchema(
    kind="fault plan",
    format=PLAN_FORMAT,
    version=PLAN_VERSION,
    version_aliases=("version",),
    fields=(
        FieldSpec("seed", "int", default=0),
        FieldSpec(
            "faults",
            "list",
            default=(),
            element=FieldSpec("fault", "object", schema=FAULT_SPEC_SCHEMA),
        ),
    ),
)
