"""Fleet simulation specs (``format: repro.fleet``).

A fleet spec is the declarative form of one datacenter simulation run
(:func:`repro.fleet.simulate_fleet`): how many GPUs for how many ticks,
the arrival process and job types, which model advises (a registry
reference, or the built-in quick model when omitted), the frequency
grid, the placement policy, and the thermal/fault knobs. Like every
other spec it is SPEC0xx-checked before anything runs, canonicalizes to
a stable :meth:`~FleetSpec.fingerprint`, and is runnable both through
``repro fleet`` and generically through ``repro run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.specs.schema import (
    SPEC_VALUE,
    FieldSpec,
    RecordSchema,
    RecordSpec,
    Reporter,
    record_field,
)

__all__ = [
    "FLEET_FORMAT",
    "FLEET_VERSION",
    "FLEET_POLICIES",
    "FLEET_SCHEMA",
    "FleetJobType",
    "FleetSpec",
]

FLEET_FORMAT = "repro.fleet"
FLEET_VERSION = 1

#: Placement policies the tick engine implements.
FLEET_POLICIES = ("advised", "static")


# ---------------------------------------------------------------------------
# nested schemas
# ---------------------------------------------------------------------------
_JOB_TYPE_SCHEMA = RecordSchema(
    kind="fleet job type",
    fields=(
        FieldSpec("name", "str", required=True),
        FieldSpec(
            "features",
            "list",
            required=True,
            min_len=1,
            element=FieldSpec("feature", "number"),
        ),
        FieldSpec(
            "deadline_s", "number", required=True, minimum=0.0, exclusive_minimum=True
        ),
        FieldSpec(
            "weight", "number", default=1.0, minimum=0.0, exclusive_minimum=True
        ),
    ),
)

_ARRIVALS_SCHEMA = RecordSchema(
    kind="fleet arrivals",
    fields=(
        FieldSpec("rate_per_tick", "number", required=True, minimum=0.0),
        FieldSpec("horizon_ticks", "int", default=None, allow_none=True, minimum=1),
    ),
)

_MODEL_REF_SCHEMA = RecordSchema(
    kind="fleet model reference",
    fields=(
        FieldSpec("registry", "str", required=True),
        FieldSpec("name", "str", required=True),
        FieldSpec("version", "int", default=None, allow_none=True, minimum=1),
    ),
)

_ADVISOR_SCHEMA = RecordSchema(
    kind="fleet advisor",
    fields=(
        FieldSpec(
            "model", "object", default=None, allow_none=True, schema=_MODEL_REF_SCHEMA
        ),
        FieldSpec(
            "freq_min_mhz",
            "number",
            default=135.0,
            minimum=0.0,
            exclusive_minimum=True,
        ),
        FieldSpec(
            "freq_max_mhz",
            "number",
            default=1597.0,
            minimum=0.0,
            exclusive_minimum=True,
        ),
        FieldSpec("freq_points", "int", default=25, minimum=2),
    ),
)

_THERMAL_SCHEMA = RecordSchema(
    kind="fleet thermal proxy",
    fields=(
        FieldSpec("ambient_c", "number", default=30.0),
        FieldSpec(
            "heat_c_per_j", "number", default=0.01, minimum=0.0, exclusive_minimum=True
        ),
        FieldSpec("cool_per_s", "number", default=0.05, minimum=0.0),
    ),
)

_FAULTS_SCHEMA = RecordSchema(
    kind="fleet faults",
    fields=(
        FieldSpec(
            "gpu_failure_prob",
            "number",
            required=True,
            minimum=0.0,
            maximum=1.0,
        ),
        FieldSpec("repair_ticks", "int", default=10, minimum=1),
    ),
)


#: A static clock this close to a grid clock is that clock: it absorbs the
#: rounding of a clock written with fewer digits than ``repr`` prints, and
#: the baseline report carries the grid clock that ran.
_GRID_CLOCK_TOL_MHZ = 1e-6


def _advisor_grid(freq_min_mhz: float, freq_max_mhz: float, freq_points: int) -> np.ndarray:
    """The advisor's clocks, as the spec check and both engines see them."""
    return np.linspace(freq_min_mhz, freq_max_mhz, freq_points)


def _fleet_extra(clean: Dict[str, Any], rep: Reporter, path: str) -> None:
    prefix = f"{path}." if path else ""
    if clean.get("advisor") is None:
        clean["advisor"] = _ADVISOR_SCHEMA.defaults()
    if clean.get("thermal") is None:
        clean["thermal"] = _THERMAL_SCHEMA.defaults()
    advisor = clean["advisor"]
    if advisor["freq_min_mhz"] >= advisor["freq_max_mhz"]:
        rep.error(
            SPEC_VALUE,
            f"{prefix}advisor.freq_min_mhz: must be below freq_max_mhz "
            f"({advisor['freq_min_mhz']} >= {advisor['freq_max_mhz']})",
        )
    static = clean["static_freq_mhz"]
    if clean["policy"] == "static" and static is None:
        rep.error(
            SPEC_VALUE,
            f"{prefix}static_freq_mhz: required when policy is 'static'",
        )
    # The static policy and the baseline run at the grid point nearest
    # this clock, so a clock off the grid would silently run elsewhere.
    if static is not None and not advisor["freq_min_mhz"] <= static <= advisor["freq_max_mhz"]:
        rep.error(
            SPEC_VALUE,
            f"{prefix}static_freq_mhz: {static} is outside the advisor grid "
            f"[{advisor['freq_min_mhz']}, {advisor['freq_max_mhz']}]",
        )
    elif static is not None:
        grid = _advisor_grid(
            advisor["freq_min_mhz"], advisor["freq_max_mhz"], advisor["freq_points"]
        )
        above = int(np.searchsorted(grid, static))
        if np.abs(grid[max(above - 1, 0) : above + 1] - static).min() > _GRID_CLOCK_TOL_MHZ:
            rep.error(
                SPEC_VALUE,
                f"{prefix}static_freq_mhz: {static} is not a clock of the advisor grid; "
                f"the nearest are {float(grid[above - 1])} and {float(grid[above])}",
            )
    job_types = clean.get("job_types")
    if isinstance(job_types, list) and job_types:
        arities = {
            len(jt["features"]) for jt in job_types if isinstance(jt, Mapping)
        }
        if len(arities) > 1:
            rep.error(
                SPEC_VALUE,
                f"{prefix}job_types: feature arity differs across job types "
                f"({sorted(arities)}); all types must match the model's arity",
            )


FLEET_SCHEMA = RecordSchema(
    kind="fleet spec",
    format=FLEET_FORMAT,
    version=FLEET_VERSION,
    fields=(
        FieldSpec("name", "str", required=True),
        FieldSpec("gpus", "int", required=True, minimum=1),
        FieldSpec("ticks", "int", required=True, minimum=1),
        FieldSpec(
            "tick_s", "number", default=1.0, minimum=0.0, exclusive_minimum=True
        ),
        FieldSpec("seed", "int", default=42, minimum=0),
        FieldSpec("idle_power_w", "number", default=25.0, minimum=0.0),
        FieldSpec("arrivals", "object", required=True, schema=_ARRIVALS_SCHEMA),
        FieldSpec(
            "job_types",
            "list",
            required=True,
            min_len=1,
            element=FieldSpec("job type", "object", schema=_JOB_TYPE_SCHEMA),
        ),
        FieldSpec(
            "advisor", "object", default=None, allow_none=True, schema=_ADVISOR_SCHEMA
        ),
        FieldSpec("policy", "str", default="advised", choices=FLEET_POLICIES),
        FieldSpec(
            "static_freq_mhz",
            "number",
            default=None,
            allow_none=True,
            minimum=0.0,
            exclusive_minimum=True,
        ),
        FieldSpec(
            "thermal", "object", default=None, allow_none=True, schema=_THERMAL_SCHEMA
        ),
        FieldSpec(
            "faults", "object", default=None, allow_none=True, schema=_FAULTS_SCHEMA
        ),
    ),
    extra_check=_fleet_extra,
)


# ---------------------------------------------------------------------------
# dataclasses
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FleetJobType(RecordSpec, schema=_JOB_TYPE_SCHEMA):
    """One workload class: features, relative deadline, and draw weight."""

    name: str = record_field("name")
    features: Tuple[float, ...] = record_field("features")
    deadline_s: float = record_field("deadline_s")
    weight: float = record_field("weight", 1.0)


@dataclass(frozen=True)
class FleetSpec(RecordSpec, schema=FLEET_SCHEMA):
    """One validated, runnable fleet simulation configuration.

    The registry path (``model_registry``) is stored exactly as written
    and resolved against ``base_dir`` only at run time, so the canonical
    record — and therefore :meth:`fingerprint` — is machine-independent,
    like :class:`~repro.specs.campaign.CampaignSpec`. ``advisor.model``
    is ``null`` without a registry, and ``faults`` is ``null`` at zero
    failure probability.
    """

    name: str = record_field("name")
    gpus: int = record_field("gpus")
    ticks: int = record_field("ticks")
    job_types: Tuple[FleetJobType, ...] = record_field("job_types", of=FleetJobType)
    arrival_rate_per_tick: float = record_field("arrivals.rate_per_tick")
    arrival_horizon_ticks: Optional[int] = record_field("arrivals.horizon_ticks", None)
    tick_s: float = record_field("tick_s", 1.0)
    seed: int = record_field("seed", 42)
    idle_power_w: float = record_field("idle_power_w", 25.0)
    model_registry: Optional[str] = record_field(
        "advisor.model.registry", None, key=True
    )
    model_name: Optional[str] = record_field("advisor.model.name", None)
    model_version: Optional[int] = record_field("advisor.model.version", None)
    freq_min_mhz: float = record_field("advisor.freq_min_mhz", 135.0)
    freq_max_mhz: float = record_field("advisor.freq_max_mhz", 1597.0)
    freq_points: int = record_field("advisor.freq_points", 25)
    policy: str = record_field("policy", "advised")
    static_freq_mhz: Optional[float] = record_field("static_freq_mhz", None)
    ambient_c: float = record_field("thermal.ambient_c", 30.0)
    heat_c_per_j: float = record_field("thermal.heat_c_per_j", 0.01)
    cool_per_s: float = record_field("thermal.cool_per_s", 0.05)
    gpu_failure_prob: float = record_field("faults.gpu_failure_prob", 0.0, key=True)
    repair_ticks: int = record_field("faults.repair_ticks", 10)
    #: Directory the spec was loaded from (for resolving the registry
    #: path); excluded from equality and from the canonical record.
    base_dir: Optional[str] = field(default=None, compare=False)

    def freq_grid(self) -> np.ndarray:
        """The advisor's frequency grid (MHz), shared by both engines."""
        return _advisor_grid(self.freq_min_mhz, self.freq_max_mhz, self.freq_points)

    def describe(self) -> str:
        """One-line human summary for run logs."""
        model = (
            f"{self.model_name}@{self.model_registry}"
            if self.model_registry is not None
            else "built-in quick model"
        )
        faults = (
            f", faults p={self.gpu_failure_prob}"
            if self.gpu_failure_prob > 0.0
            else ""
        )
        return (
            f"fleet {self.name!r}: {self.gpus} GPUs x {self.ticks} ticks "
            f"({self.tick_s}s), {len(self.job_types)} job type(s) at "
            f"{self.arrival_rate_per_tick}/tick, policy {self.policy}, "
            f"{model}, seed {self.seed}{faults}"
        )
