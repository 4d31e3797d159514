"""Schema for device-spec tables (``format: repro.device_spec``).

A device table is the declarative form of
:class:`repro.hw.specs.DeviceSpec`: every physically-dimensioned field
is a quantity object (``{"value": 900, "unit": "GB/s"}``) so that
``SPEC004`` can prove the units line up before a simulator is ever
built, and unit conversions (``GHz`` → ``MHz``, ``kJ``-style prefixes)
happen at load time via :mod:`repro.analysis.dimensional`. A table that
passes schema validation is additionally run through the hardware-spec
validator (``HW001``–``HW005``), so lint on a device table checks the
same internal-consistency invariants as the built-in self-check.
"""

from __future__ import annotations

import pathlib
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.errors import SpecError
from repro.hw.dvfs import FrequencyTable, VoltageCurve
from repro.hw.specs import DeviceSpec
from repro.specs.schema import (
    SPEC_VALUE,
    FieldSpec,
    RecordSchema,
    Reporter,
    load_clean,
    read_spec_file,
)

__all__ = [
    "DEVICE_TABLE_FORMAT",
    "DEVICE_TABLE_VERSION",
    "DEVICE_TABLE_SCHEMA",
    "device_spec_from_clean",
    "device_table_record",
    "check_device_table",
    "load_device_table",
]

DEVICE_TABLE_FORMAT = "repro.device_spec"
#: v2 adds the optional memory-DVFS domain (``mem_freqs`` +
#: ``mem_voltage``); v1 tables migrate automatically (the new fields
#: simply default to "no memory DVFS").
DEVICE_TABLE_VERSION = 2

PathLike = Union[str, pathlib.Path]


def _check_freq_band(clean: Dict[str, Any], rep: Reporter, path: str) -> None:
    prefix = f"{path}." if path else ""
    if clean["min"] >= clean["max"]:
        rep.error(
            SPEC_VALUE,
            f"{prefix}min: frequency band is empty "
            f"({clean['min']:g} >= {clean['max']:g} MHz)",
        )
        return
    default = clean["default"]
    if default is not None and not (clean["min"] <= default <= clean["max"]):
        rep.error(
            SPEC_VALUE,
            f"{prefix}default: {default:g} MHz lies outside the "
            f"[{clean['min']:g}, {clean['max']:g}] MHz band",
        )


_CORE_FREQS_SCHEMA = RecordSchema(
    kind="core frequency table",
    fields=(
        FieldSpec("min", "quantity", required=True, unit="MHz", minimum=0.0, exclusive_minimum=True),
        FieldSpec("max", "quantity", required=True, unit="MHz", minimum=0.0, exclusive_minimum=True),
        FieldSpec("count", "int", required=True, minimum=2),
        FieldSpec(
            "default",
            "quantity",
            default=None,
            allow_none=True,
            unit="MHz",
            minimum=0.0,
            exclusive_minimum=True,
        ),
    ),
    extra_check=_check_freq_band,
)


def _check_voltages(clean: Dict[str, Any], rep: Reporter, path: str) -> None:
    prefix = f"{path}." if path else ""
    if clean["v_min"] > clean["v_max"]:
        rep.error(
            SPEC_VALUE,
            f"{prefix}v_min: {clean['v_min']:g} V exceeds v_max {clean['v_max']:g} V",
        )


_VOLTAGE_SCHEMA = RecordSchema(
    kind="voltage curve",
    fields=(
        FieldSpec("v_min", "number", required=True, minimum=0.0, exclusive_minimum=True),
        FieldSpec("v_max", "number", required=True, minimum=0.0, exclusive_minimum=True),
        FieldSpec("knee", "quantity", required=True, unit="MHz", minimum=0.0, exclusive_minimum=True),
        FieldSpec("exponent", "number", default=1.0, minimum=0.0, exclusive_minimum=True),
    ),
    extra_check=_check_voltages,
)

_MEM_FREQS_SCHEMA = RecordSchema(
    kind="memory frequency table",
    fields=(
        FieldSpec("min", "quantity", required=True, unit="MHz", minimum=0.0, exclusive_minimum=True),
        FieldSpec("max", "quantity", required=True, unit="MHz", minimum=0.0, exclusive_minimum=True),
        FieldSpec("count", "int", required=True, minimum=2),
        FieldSpec(
            "default",
            "quantity",
            default=None,
            allow_none=True,
            unit="MHz",
            minimum=0.0,
            exclusive_minimum=True,
        ),
    ),
    extra_check=_check_freq_band,
)


def _check_memory_domain(clean: Dict[str, Any], rep: Reporter, path: str) -> None:
    """v2 cross-field invariants of the optional memory-DVFS domain."""
    if clean.get("mem_voltage") is not None and clean.get("mem_freqs") is None:
        rep.error(
            SPEC_VALUE,
            "mem_voltage: a memory voltage curve needs a mem_freqs table "
            "to span",
        )
    mf = clean.get("mem_freqs")
    if mf is not None:
        ref = clean["mem_freq"]
        if not (mf["min"] <= ref <= mf["max"]):
            rep.error(
                SPEC_VALUE,
                f"mem_freq: reference clock {ref:g} MHz lies outside the "
                f"mem_freqs band [{mf['min']:g}, {mf['max']:g}] MHz",
            )


def _migrate_device_v1(body: Dict[str, Any]) -> Dict[str, Any]:
    """v1 → v2: the memory-DVFS fields are optional; nothing to rewrite."""
    return body


DEVICE_TABLE_SCHEMA = RecordSchema(
    kind="device spec table",
    format=DEVICE_TABLE_FORMAT,
    version=DEVICE_TABLE_VERSION,
    migrations={1: _migrate_device_v1},
    extra_check=_check_memory_domain,
    fields=(
        FieldSpec("name", "str", required=True),
        FieldSpec("vendor", "str", required=True, choices=("nvidia", "amd", "intel")),
        FieldSpec("n_cores", "int", required=True, minimum=1),
        FieldSpec("ipc", "number", required=True, minimum=0.0, exclusive_minimum=True),
        FieldSpec("max_resident_threads", "int", required=True, minimum=1),
        FieldSpec("max_mlp", "int", required=True, minimum=1),
        FieldSpec("per_thread_mlp", "number", default=6.0, minimum=0.0, exclusive_minimum=True),
        FieldSpec("active_idle_frac", "number", default=0.12, minimum=0.0, maximum=1.0),
        FieldSpec("mem_freq_coupling", "number", default=0.5, minimum=0.0, maximum=1.0),
        FieldSpec("bytes_per_access", "number", default=8.0, minimum=0.0, exclusive_minimum=True),
        FieldSpec("launch_overhead", "quantity", default=0.0, unit="us", minimum=0.0),
        FieldSpec("mem_bandwidth", "quantity", required=True, unit="GB/s", minimum=0.0, exclusive_minimum=True),
        FieldSpec("mem_latency", "quantity", required=True, unit="ns", minimum=0.0, exclusive_minimum=True),
        FieldSpec("mem_freq", "quantity", required=True, unit="MHz", minimum=0.0, exclusive_minimum=True),
        FieldSpec("p_static", "quantity", required=True, unit="W", minimum=0.0, exclusive_minimum=True),
        FieldSpec("p_clock", "quantity", default=0.0, unit="W", minimum=0.0),
        FieldSpec("p_core_dyn", "quantity", default=0.0, unit="W", minimum=0.0),
        FieldSpec("p_mem_dyn", "quantity", default=0.0, unit="W", minimum=0.0),
        FieldSpec("core_freqs", "object", required=True, schema=_CORE_FREQS_SCHEMA),
        FieldSpec("voltage", "object", required=True, schema=_VOLTAGE_SCHEMA),
        FieldSpec("mem_freqs", "object", default=None, allow_none=True, schema=_MEM_FREQS_SCHEMA),
        FieldSpec("mem_voltage", "object", default=None, allow_none=True, schema=_VOLTAGE_SCHEMA),
        FieldSpec(
            "op_cost_overrides",
            "map",
            default={},
            element=FieldSpec("op cost", "number", minimum=0.0, exclusive_minimum=True),
        ),
    ),
)


def device_spec_from_clean(clean: Dict[str, Any]) -> DeviceSpec:
    """Build a :class:`DeviceSpec` from a schema-cleaned device table."""
    cf = clean["core_freqs"]
    freqs = FrequencyTable.linear(
        cf["min"], cf["max"], cf["count"], default_mhz=cf["default"]
    )
    volt = clean["voltage"]
    voltage = VoltageCurve(
        v_min=volt["v_min"],
        v_max=volt["v_max"],
        f_min_mhz=cf["min"],
        f_knee_mhz=volt["knee"],
        f_max_mhz=cf["max"],
        exponent=volt["exponent"],
    )
    mem_freqs = None
    mem_voltage = None
    mf = clean.get("mem_freqs")
    if mf is not None:
        mem_freqs = FrequencyTable.linear(
            mf["min"],
            mf["max"],
            mf["count"],
            default_mhz=mf["default"] if mf["default"] is not None else clean["mem_freq"],
        )
        mv = clean.get("mem_voltage")
        if mv is not None:
            mem_voltage = VoltageCurve(
                v_min=mv["v_min"],
                v_max=mv["v_max"],
                f_min_mhz=mf["min"],
                f_knee_mhz=mv["knee"],
                f_max_mhz=mf["max"],
                exponent=mv["exponent"],
            )
    return DeviceSpec(
        name=clean["name"],
        vendor=clean["vendor"],
        n_cores=clean["n_cores"],
        ipc=clean["ipc"],
        max_resident_threads=clean["max_resident_threads"],
        mem_bandwidth_gbs=clean["mem_bandwidth"],
        mem_latency_ns=clean["mem_latency"],
        max_mlp=clean["max_mlp"],
        launch_overhead_us=clean["launch_overhead"],
        core_freqs=freqs,
        mem_freq_mhz=clean["mem_freq"],
        voltage=voltage,
        p_static_w=clean["p_static"],
        p_clock_w=clean["p_clock"],
        p_core_dyn_w=clean["p_core_dyn"],
        p_mem_dyn_w=clean["p_mem_dyn"],
        mem_freq_coupling=clean["mem_freq_coupling"],
        bytes_per_access=clean["bytes_per_access"],
        per_thread_mlp=clean["per_thread_mlp"],
        active_idle_frac=clean["active_idle_frac"],
        op_cost_overrides=dict(clean["op_cost_overrides"]),
        mem_freqs=mem_freqs,
        mem_voltage=mem_voltage,
    )


def _q(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def device_table_record(spec: DeviceSpec) -> Dict[str, Any]:
    """Inverse of :func:`device_spec_from_clean`: spec → table record.

    Only representable specs round-trip: the table stores the frequency
    band as (min, max, count), so a spec whose table is not evenly
    spaced is first snapped onto the linear band with the same bounds
    and bin count. Specs without memory DVFS omit the v2 ``mem_freqs``
    / ``mem_voltage`` keys entirely, so v1-era devices keep their exact
    field set (plus the bumped ``schema_version``).
    """
    table = spec.core_freqs
    record = {
        "format": DEVICE_TABLE_FORMAT,
        "schema_version": DEVICE_TABLE_VERSION,
        "name": spec.name,
        "vendor": spec.vendor,
        "n_cores": int(spec.n_cores),
        "ipc": float(spec.ipc),
        "max_resident_threads": int(spec.max_resident_threads),
        "max_mlp": int(spec.max_mlp),
        "per_thread_mlp": float(spec.per_thread_mlp),
        "active_idle_frac": float(spec.active_idle_frac),
        "mem_freq_coupling": float(spec.mem_freq_coupling),
        "bytes_per_access": float(spec.bytes_per_access),
        "launch_overhead": _q(spec.launch_overhead_us, "us"),
        "mem_bandwidth": _q(spec.mem_bandwidth_gbs, "GB/s"),
        "mem_latency": _q(spec.mem_latency_ns, "ns"),
        "mem_freq": _q(spec.mem_freq_mhz, "MHz"),
        "p_static": _q(spec.p_static_w, "W"),
        "p_clock": _q(spec.p_clock_w, "W"),
        "p_core_dyn": _q(spec.p_core_dyn_w, "W"),
        "p_mem_dyn": _q(spec.p_mem_dyn_w, "W"),
        "core_freqs": {
            "min": _q(float(table.freqs_mhz[0]), "MHz"),
            "max": _q(float(table.freqs_mhz[-1]), "MHz"),
            "count": int(len(table.freqs_mhz)),
            "default": (
                None if table.default_mhz is None else _q(table.default_mhz, "MHz")
            ),
        },
        "voltage": {
            "v_min": float(spec.voltage.v_min),
            "v_max": float(spec.voltage.v_max),
            "knee": _q(spec.voltage.f_knee_mhz, "MHz"),
            "exponent": float(spec.voltage.exponent),
        },
        "op_cost_overrides": {
            str(k): float(v) for k, v in sorted(spec.op_cost_overrides.items())
        },
    }
    if spec.mem_freqs is not None:
        mem_table = spec.mem_freqs
        record["mem_freqs"] = {
            "min": _q(float(mem_table.freqs_mhz[0]), "MHz"),
            "max": _q(float(mem_table.freqs_mhz[-1]), "MHz"),
            "count": int(len(mem_table.freqs_mhz)),
            "default": (
                None
                if mem_table.default_mhz is None
                else _q(mem_table.default_mhz, "MHz")
            ),
        }
        if spec.mem_voltage is not None:
            record["mem_voltage"] = {
                "v_min": float(spec.mem_voltage.v_min),
                "v_max": float(spec.mem_voltage.v_max),
                "knee": _q(spec.mem_voltage.f_knee_mhz, "MHz"),
                "exponent": float(spec.mem_voltage.exponent),
            }
    return record


def check_device_table(record: Any, file: str = "<device table>") -> List[Diagnostic]:
    """Full static check of one device table: schema + HW validator.

    Hardware-model invariants (``HW001``–``HW005``) are only checkable
    once the table is structurally clean; their diagnostics are re-homed
    onto ``file`` so lint output points at the JSON artifact rather than
    the transient in-memory spec object.
    """
    clean, diags = DEVICE_TABLE_SCHEMA.validate(record, file=file)
    if clean is None:
        return diags
    try:
        spec = device_spec_from_clean(clean)
    except (ValueError, SpecError) as exc:
        diags.append(
            Diagnostic(
                rule=SPEC_VALUE,
                severity=Severity.ERROR,
                message=f"device table does not build a valid spec: {exc}",
                file=file,
            )
        )
        return diags
    from repro.analysis.hw_validator import verify_device_spec

    diags.extend(replace(d, file=file) for d in verify_device_spec(spec))
    return diags


def load_device_table(path: PathLike) -> DeviceSpec:
    """Load and validate a device table file into a :class:`DeviceSpec`.

    Raises :class:`SpecError` on unreadable/unparsable files and on a
    table that does not build a valid spec (lint's ``SPEC002``), and
    :class:`SpecValidationError` (with the full diagnostic list) on
    schema violations.
    """
    p = pathlib.Path(path)
    clean = load_clean(DEVICE_TABLE_SCHEMA, read_spec_file(p, "device table"), file=str(p))
    try:
        return device_spec_from_clean(clean)
    except ValueError as exc:
        raise SpecError(f"device table {p} does not build a valid spec: {exc}") from exc
