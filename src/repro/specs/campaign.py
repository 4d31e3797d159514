"""Campaign config specs (``format: repro.campaign``).

A campaign spec is the declarative form of one ``repro campaign``
invocation: which application grid to sweep (``app``), on which device
(``device`` — a built-in name or a ``{"table": path}`` reference to a
:mod:`device table <repro.specs.device_table>`), over which frequencies
(``sweep``), and how to execute (``engine``). Running a validated spec
through :func:`repro.specs.run.run_campaign` is bit-identical to the
equivalent hand-wired CLI invocation — the spec layer only *names* the
same objects the CLI used to construct inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.experiments import configs
from repro.experiments.workloads import APP_KINDS, WORKLOADS, workload_kind
from repro.specs.schema import (
    SPEC_VALUE,
    SPEC_XREF,
    FieldSpec,
    RecordSchema,
    RecordSpec,
    Reporter,
    as_frozen,
    as_plain,
    record_field,
)
from repro.synergy.api import BUILTIN_DEVICES

__all__ = [
    "CAMPAIGN_FORMAT",
    "CAMPAIGN_VERSION",
    "APP_KINDS",
    "BUILTIN_DEVICES",
    "CAMPAIGN_SCHEMA",
    "SweepSpec",
    "EngineSpec",
    "CampaignSpec",
    "campaign_spec_from_cli",
]

CAMPAIGN_FORMAT = "repro.campaign"
CAMPAIGN_VERSION = 1


# ---------------------------------------------------------------------------
# nested schemas
# ---------------------------------------------------------------------------
def _param_field(name: str, default: Any) -> FieldSpec:
    """The spec field of one catalog param, by its spec-style name."""
    positive_int = dict(kind="int", minimum=1)
    if name == "steps":
        return FieldSpec(name, default=default, **positive_int)
    if name == "grids":
        dim = FieldSpec("grid dim", **positive_int)
        grid = FieldSpec("grid", "list", min_len=3, max_len=3, element=dim)
        return FieldSpec(name, "list", default=[list(g) for g in default], min_len=1, element=grid)
    # ``ligand_counts`` -> a non-empty list of positive "ligand count"s.
    count = FieldSpec(name[: -len("s")].replace("_", " "), **positive_int)
    return FieldSpec(name, "list", default=list(default), min_len=1, element=count)


#: Each application kind's ``app`` object: its ``kind`` tag plus the
#: catalog params, defaulting to the kind's paper grid.
_APP_SCHEMAS = {
    kind: RecordSchema(
        kind=f"{kind} app grid",
        fields=(
            FieldSpec("kind", "str", required=True, choices=APP_KINDS, choices_rule=SPEC_XREF),
            *(_param_field(name, value) for name, value in workload.paper_params.items()),
        ),
    )
    for kind, workload in WORKLOADS.items()
}


def _check_sweep(clean: Dict[str, Any], rep: Reporter, path: str) -> None:
    prefix = f"{path}." if path else ""
    if clean["freq_count"] is not None and clean["freqs_mhz"] is not None:
        rep.error(
            SPEC_VALUE,
            f"{prefix}freq_count: mutually exclusive with "
            f"{prefix}freqs_mhz — give the bin count or the explicit list",
        )


_SWEEP_SCHEMA = RecordSchema(
    kind="sweep",
    renamed={"reps": "repetitions"},
    fields=(
        FieldSpec("freq_count", "int", default=None, allow_none=True, minimum=1),
        FieldSpec(
            "freqs_mhz",
            "list",
            default=None,
            allow_none=True,
            min_len=1,
            element=FieldSpec(
                "frequency", "number", minimum=0.0, exclusive_minimum=True
            ),
        ),
        FieldSpec("repetitions", "int", default=configs.DEFAULT_REPETITIONS, minimum=1),
        FieldSpec(
            "mem_freqs_mhz",
            "list",
            default=None,
            allow_none=True,
            min_len=1,
            element=FieldSpec(
                "memory frequency", "number", minimum=0.0, exclusive_minimum=True
            ),
        ),
    ),
    extra_check=_check_sweep,
)

_ENGINE_SCHEMA = RecordSchema(
    kind="engine config",
    fields=(
        FieldSpec("seed", "int", default=42, minimum=0),
        FieldSpec("jobs", "int", default=1, minimum=1, maximum=1),
        FieldSpec("method", "str", default="replay", choices=("serial", "replay")),
        FieldSpec("cache_dir", "str", default=None, allow_none=True),
        FieldSpec("max_retries", "int", default=2, minimum=0),
    ),
)

_DEVICE_REF_SCHEMA = RecordSchema(
    kind="device reference",
    fields=(FieldSpec("table", "str", required=True),),
)


def _campaign_extra(clean: Dict[str, Any], rep: Reporter, path: str) -> None:
    prefix = f"{path}." if path else ""
    app = clean.get("app")
    if not isinstance(app, Mapping):
        rep.error(
            SPEC_VALUE,
            f"{prefix}app: expected an object with a 'kind', "
            f"got {type(app).__name__}",
        )
    else:
        kind = app.get("kind")
        if kind not in APP_KINDS:
            rep.error(
                SPEC_XREF,
                f"{prefix}app.kind: unknown application kind {kind!r}; "
                f"expected one of {APP_KINDS}",
            )
        else:
            clean["app"] = _APP_SCHEMAS[kind].validate_body(
                app, rep, path=f"{prefix}app" if prefix else "app"
            )
    device = clean.get("device")
    if isinstance(device, str):
        name = device.strip().lower()
        if name not in BUILTIN_DEVICES:
            rep.error(
                SPEC_XREF,
                f"{prefix}device: unknown device {device!r}; expected one of "
                f"{BUILTIN_DEVICES} or a {{'table': PATH}} reference",
            )
        else:
            clean["device"] = name
    elif isinstance(device, Mapping):
        clean["device"] = _DEVICE_REF_SCHEMA.validate_body(
            device, rep, path=f"{prefix}device" if prefix else "device"
        )
    else:
        rep.error(
            SPEC_VALUE,
            f"{prefix}device: expected a device name or a {{'table': PATH}} "
            f"reference, got {type(device).__name__}",
        )
    if clean.get("sweep") is None:
        clean["sweep"] = _SWEEP_SCHEMA.defaults()
    if clean.get("engine") is None:
        clean["engine"] = _ENGINE_SCHEMA.defaults()


CAMPAIGN_SCHEMA = RecordSchema(
    kind="campaign spec",
    format=CAMPAIGN_FORMAT,
    version=CAMPAIGN_VERSION,
    fields=(
        FieldSpec("app", "any", required=True),
        FieldSpec("device", "any", default="v100"),
        FieldSpec("sweep", "object", default=None, allow_none=True, schema=_SWEEP_SCHEMA),
        FieldSpec("engine", "object", default=None, allow_none=True, schema=_ENGINE_SCHEMA),
    ),
    extra_check=_campaign_extra,
)


# ---------------------------------------------------------------------------
# dataclasses
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepSpec(RecordSpec, schema=_SWEEP_SCHEMA):
    """Frequency sweep: a bin count *or* an explicit list, plus repetitions.

    ``mem_freqs_mhz`` turns the sweep into the 2-D ``(f_core, f_mem)``
    grid — every core point is measured at every listed memory clock.
    ``None`` (the default) keeps the classic core-only sweep.
    """

    freq_count: Optional[int] = record_field("freq_count", None)
    freqs_mhz: Optional[Tuple[float, ...]] = record_field("freqs_mhz", None)
    repetitions: int = record_field("repetitions", configs.DEFAULT_REPETITIONS)
    #: Left out of core-only records, so their key set and fingerprints
    #: stay those of pre-2-D specs.
    mem_freqs_mhz: Optional[Tuple[float, ...]] = record_field(
        "mem_freqs_mhz", None, optional=True
    )


@dataclass(frozen=True)
class EngineSpec(RecordSpec, schema=_ENGINE_SCHEMA):
    """Execution knobs mirroring :class:`repro.runtime.engine.CampaignEngine`."""

    seed: int = record_field("seed", 42)
    #: Only 1: a campaign runs in the calling process. The field stays so
    #: that specs spelling ``"jobs": 1`` load and keep their fingerprints.
    jobs: int = record_field("jobs", 1)
    method: str = record_field("method", "replay")
    cache_dir: Optional[str] = record_field("cache_dir", None)
    max_retries: int = record_field("max_retries", 2)


@dataclass(frozen=True)
class CampaignSpec(RecordSpec, schema=CAMPAIGN_SCHEMA):
    """One validated, runnable campaign configuration.

    ``device_name`` and ``device_table`` are mutually exclusive; the
    table path is stored exactly as written (resolved against
    ``base_dir`` only at run time) so that the canonical record — and
    therefore :meth:`fingerprint` — is machine-independent.
    """

    app_kind: str
    app_params: Mapping[str, Any]
    sweep: SweepSpec = record_field("sweep", SweepSpec(), of=SweepSpec)
    engine: EngineSpec = record_field("engine", EngineSpec(), of=EngineSpec)
    device_name: Optional[str] = "v100"
    device_table: Optional[str] = None
    #: Directory the spec was loaded from (for resolving relative paths);
    #: excluded from equality so loading the same spec from two places
    #: still compares equal.
    base_dir: Optional[str] = field(default=None, compare=False)

    def as_record(self) -> Dict[str, Any]:
        """Canonical record: ``app`` is the kind plus its sorted params,
        ``device`` a built-in name or a ``{"table": PATH}`` reference."""
        record = super().as_record()
        record["app"] = {"kind": self.app_kind}
        for key in sorted(self.app_params):
            record["app"][key] = as_plain(self.app_params[key])
        record["device"] = (
            self.device_name
            if self.device_table is None
            else {"table": self.device_table}
        )
        return record

    @classmethod
    def from_clean(
        cls, clean: Dict[str, Any], base_dir: Optional[str] = None
    ) -> "CampaignSpec":
        """Build from a schema-cleaned record (see ``CAMPAIGN_SCHEMA``)."""
        app = dict(clean["app"])
        device = clean["device"]
        return super().from_clean(
            clean,
            base_dir,
            app_kind=app.pop("kind"),
            app_params={key: as_frozen(value) for key, value in app.items()},
            device_name=device if isinstance(device, str) else None,
            device_table=device["table"] if isinstance(device, Mapping) else None,
        )

    def describe(self) -> str:
        """One-line human summary for run logs."""
        device = self.device_name or f"table:{self.device_table}"
        sweep = (
            f"{len(self.sweep.freqs_mhz)} explicit freqs"
            if self.sweep.freqs_mhz is not None
            else f"{self.sweep.freq_count or 'all'} freq bins"
        )
        if self.sweep.mem_freqs_mhz is not None:
            sweep += f" x {len(self.sweep.mem_freqs_mhz)} mem clocks"
        return (
            f"{self.app_kind} on {device}, {sweep} x {self.sweep.repetitions} reps, "
            f"seed {self.engine.seed}, {self.engine.method}, jobs {self.engine.jobs}"
        )


# ---------------------------------------------------------------------------
# CLI bridge
# ---------------------------------------------------------------------------
def campaign_spec_from_cli(
    app: str,
    device: str = "v100",
    quick: bool = False,
    freq_count: Optional[int] = None,
    repetitions: int = 5,
    seed: int = 42,
    method: str = "replay",
    cache_dir: Optional[str] = None,
    max_retries: int = 2,
    mem_freqs_mhz: Optional[Sequence[float]] = None,
) -> CampaignSpec:
    """Build the spec equivalent of one ``repro campaign`` invocation.

    The kind's catalog grid is spelled out explicitly so the resulting
    spec is self-contained: running it later reproduces the quick run
    even if the catalog's quick grid changes. ``mem_freqs_mhz`` turns
    the sweep into a 2-D (core x memory) grid — for kinds with a memory
    axis only, like the spec field it populates. The values pass through
    :data:`CAMPAIGN_SCHEMA` like a spec file's, so a bad one raises
    :class:`~repro.errors.SpecValidationError` naming its field.
    """
    workload = workload_kind(app)
    params = workload.quick_params if quick else workload.paper_params
    return CampaignSpec.from_record(
        {
            "format": CAMPAIGN_FORMAT,
            "schema_version": CAMPAIGN_VERSION,
            "app": {"kind": app, **params},
            "device": device,
            "sweep": {
                "freq_count": freq_count,
                "repetitions": repetitions,
                "mem_freqs_mhz": (
                    None if mem_freqs_mhz is None else [float(f) for f in mem_freqs_mhz]
                ),
            },
            "engine": {
                "seed": seed,
                "method": method,
                "cache_dir": cache_dir,
                "max_retries": max_retries,
            },
        }
    )
