"""Lifecycle specs (``format: repro.lifecycle``).

A lifecycle spec is the declarative form of one closed
train→serve→observe→retrain loop (:func:`repro.lifecycle.run_lifecycle`):
which registry/model name it governs, the workload world that generates
live traffic, the serving frequency grid, the drift thresholds
(hysteresis, patience), the canary policy (shadow size, tolerance), and
the optional synthetic drift injection used by chaos runs and the
lifecycle benchmark. Like every other spec it is SPEC0xx-checked before
anything runs, canonicalizes to a stable
:meth:`~LifecycleSpec.fingerprint`, and runs both through ``repro
lifecycle`` and generically through ``repro run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.experiments.workloads import WORKLOADS
from repro.specs.schema import (
    SPEC_VALUE,
    FieldSpec,
    RecordSchema,
    RecordSpec,
    Reporter,
    record_field,
)

__all__ = [
    "LIFECYCLE_FORMAT",
    "LIFECYCLE_VERSION",
    "LIFECYCLE_APP_KINDS",
    "LIFECYCLE_SCHEMA",
    "LifecycleSpec",
]

LIFECYCLE_FORMAT = "repro.lifecycle"
LIFECYCLE_VERSION = 1

#: Workload kinds the loop knows how to build and (on drift) retrain on.
LIFECYCLE_APP_KINDS = ("ligen", "cronos")


# ---------------------------------------------------------------------------
# nested schemas
# ---------------------------------------------------------------------------
_MODEL_REF_SCHEMA = RecordSchema(
    kind="lifecycle model reference",
    fields=(
        FieldSpec("registry", "str", required=True),
        FieldSpec("name", "str", required=True),
    ),
)

_WORKLOAD_SCHEMA = RecordSchema(
    kind="lifecycle workload",
    fields=(
        FieldSpec("app", "str", required=True, choices=LIFECYCLE_APP_KINDS),
        FieldSpec("device", "str", default="v100", choices=("v100", "mi100")),
        FieldSpec(
            "ligand_counts",
            "list",
            default=None,
            allow_none=True,
            min_len=1,
            element=FieldSpec("ligand count", "int", minimum=1),
        ),
        FieldSpec(
            "atom_counts",
            "list",
            default=None,
            allow_none=True,
            min_len=1,
            element=FieldSpec("atom count", "int", minimum=1),
        ),
        FieldSpec(
            "fragment_counts",
            "list",
            default=None,
            allow_none=True,
            min_len=1,
            element=FieldSpec("fragment count", "int", minimum=1),
        ),
        FieldSpec(
            "grids",
            "list",
            default=None,
            allow_none=True,
            min_len=1,
            element=FieldSpec(
                "grid",
                "list",
                min_len=3,
                max_len=3,
                element=FieldSpec("grid size", "int", minimum=1),
            ),
        ),
        FieldSpec("steps", "int", default=10, minimum=1),
        FieldSpec("freq_count", "int", default=6, minimum=2),
        FieldSpec("repetitions", "int", default=1, minimum=1),
        FieldSpec("trees", "int", default=12, minimum=1),
    ),
)

_SERVING_SCHEMA = RecordSchema(
    kind="lifecycle serving",
    fields=(
        FieldSpec(
            "freq_min_mhz", "number", default=135.0, minimum=0.0, exclusive_minimum=True
        ),
        FieldSpec(
            "freq_max_mhz", "number", default=1597.0, minimum=0.0, exclusive_minimum=True
        ),
        FieldSpec("freq_points", "int", default=25, minimum=2),
    ),
)

_DRIFT_SCHEMA = RecordSchema(
    kind="lifecycle drift policy",
    fields=(
        FieldSpec("window", "int", default=64, minimum=1),
        FieldSpec(
            "enter_mape", "number", required=True, minimum=0.0, exclusive_minimum=True
        ),
        FieldSpec("exit_mape", "number", required=True, minimum=0.0),
        FieldSpec("patience", "int", default=1, minimum=1),
        FieldSpec("min_samples", "int", default=1, minimum=1),
    ),
)

_CANARY_SCHEMA = RecordSchema(
    kind="lifecycle canary policy",
    fields=(
        FieldSpec("shadow_size", "int", default=32, minimum=1),
        FieldSpec("tolerance", "number", default=0.0, minimum=0.0),
    ),
)

_INJECTION_SCHEMA = RecordSchema(
    kind="lifecycle drift injection",
    fields=(
        FieldSpec("epoch", "int", required=True, minimum=0),
        FieldSpec(
            "work_scale", "number", required=True, minimum=0.0, exclusive_minimum=True
        ),
    ),
)


def _lifecycle_extra(clean: Dict[str, Any], rep: Reporter, path: str) -> None:
    prefix = f"{path}." if path else ""
    if clean.get("serving") is None:
        clean["serving"] = _SERVING_SCHEMA.defaults()
    if clean.get("canary") is None:
        clean["canary"] = _CANARY_SCHEMA.defaults()
    serving = clean["serving"]
    if serving["freq_min_mhz"] >= serving["freq_max_mhz"]:
        rep.error(
            SPEC_VALUE,
            f"{prefix}serving.freq_min_mhz: must be below freq_max_mhz "
            f"({serving['freq_min_mhz']} >= {serving['freq_max_mhz']})",
        )
    drift = clean.get("drift")
    if isinstance(drift, dict) and drift.get("exit_mape") is not None:
        if drift["exit_mape"] > drift["enter_mape"]:
            rep.error(
                SPEC_VALUE,
                f"{prefix}drift.exit_mape: hysteresis requires exit <= enter "
                f"({drift['exit_mape']} > {drift['enter_mape']})",
            )
    workload = clean.get("workload")
    if isinstance(workload, dict) and workload.get("app") in WORKLOADS:
        kind = workload["app"]
        for name in WORKLOADS[kind].param_names:
            if workload.get(name) is None:
                rep.error(
                    SPEC_VALUE,
                    f"{prefix}workload.{name}: required for app {kind!r}",
                )


LIFECYCLE_SCHEMA = RecordSchema(
    kind="lifecycle spec",
    format=LIFECYCLE_FORMAT,
    version=LIFECYCLE_VERSION,
    fields=(
        FieldSpec("name", "str", required=True),
        FieldSpec("seed", "int", default=42, minimum=0),
        FieldSpec("model", "object", required=True, schema=_MODEL_REF_SCHEMA),
        FieldSpec("workload", "object", required=True, schema=_WORKLOAD_SCHEMA),
        FieldSpec(
            "serving", "object", default=None, allow_none=True, schema=_SERVING_SCHEMA
        ),
        FieldSpec("drift", "object", required=True, schema=_DRIFT_SCHEMA),
        FieldSpec(
            "canary", "object", default=None, allow_none=True, schema=_CANARY_SCHEMA
        ),
        FieldSpec(
            "injection",
            "object",
            default=None,
            allow_none=True,
            schema=_INJECTION_SCHEMA,
        ),
        FieldSpec("epochs", "int", default=6, minimum=1),
        FieldSpec("requests_per_epoch", "int", default=16, minimum=1),
    ),
    extra_check=_lifecycle_extra,
)


# ---------------------------------------------------------------------------
# dataclass
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LifecycleSpec(RecordSpec, schema=LIFECYCLE_SCHEMA):
    """One validated, runnable closed-loop lifecycle configuration.

    The registry path is stored exactly as written and resolved against
    ``base_dir`` only at run time, so the canonical record — and
    therefore :meth:`fingerprint` — is machine-independent, like every
    other spec. ``injection`` is ``null`` without an injection epoch.
    """

    name: str = record_field("name")
    registry: str = record_field("model.registry")
    model_name: str = record_field("model.name")
    app_kind: str = record_field("workload.app")
    seed: int = record_field("seed", 42)
    device_name: str = record_field("workload.device", "v100")
    ligand_counts: Optional[Tuple[int, ...]] = record_field("workload.ligand_counts", None)
    atom_counts: Optional[Tuple[int, ...]] = record_field("workload.atom_counts", None)
    fragment_counts: Optional[Tuple[int, ...]] = record_field(
        "workload.fragment_counts", None
    )
    grids: Optional[Tuple[Tuple[int, int, int], ...]] = record_field("workload.grids", None)
    steps: int = record_field("workload.steps", 10)
    freq_count: int = record_field("workload.freq_count", 6)
    repetitions: int = record_field("workload.repetitions", 1)
    trees: int = record_field("workload.trees", 12)
    freq_min_mhz: float = record_field("serving.freq_min_mhz", 135.0)
    freq_max_mhz: float = record_field("serving.freq_max_mhz", 1597.0)
    freq_points: int = record_field("serving.freq_points", 25)
    drift_window: int = record_field("drift.window", 64)
    enter_mape: float = record_field("drift.enter_mape", 20.0)
    exit_mape: float = record_field("drift.exit_mape", 10.0)
    patience: int = record_field("drift.patience", 1)
    min_samples: int = record_field("drift.min_samples", 1)
    shadow_size: int = record_field("canary.shadow_size", 32)
    tolerance: float = record_field("canary.tolerance", 0.0)
    inject_epoch: Optional[int] = record_field("injection.epoch", None, key=True)
    inject_work_scale: float = record_field("injection.work_scale", 1.0)
    epochs: int = record_field("epochs", 6)
    requests_per_epoch: int = record_field("requests_per_epoch", 16)
    #: Directory the spec was loaded from (for resolving the registry
    #: path); excluded from equality and from the canonical record.
    base_dir: Optional[str] = field(default=None, compare=False)

    def freq_grid(self) -> np.ndarray:
        """The serving frequency grid (MHz) the advisor evaluates over."""
        return np.linspace(self.freq_min_mhz, self.freq_max_mhz, self.freq_points)

    def describe(self) -> str:
        """One-line human summary for run logs."""
        injection = (
            f", inject x{self.inject_work_scale} at epoch {self.inject_epoch}"
            if self.inject_epoch is not None
            else ""
        )
        return (
            f"lifecycle {self.name!r}: {self.model_name}@{self.registry}, "
            f"{self.app_kind} workload, {self.epochs} epoch(s) x "
            f"{self.requests_per_epoch} request(s), drift "
            f">{self.enter_mape}%/<= {self.exit_mape}% (patience "
            f"{self.patience}), shadow {self.shadow_size}, seed {self.seed}"
            f"{injection}"
        )
