"""Declarative fault plans: what to break, where, and how often.

A :class:`FaultPlan` is a seed plus a list of :class:`FaultSpec` entries.
Every spec names one fault *kind* (the site it hooks is implied by the
kind) and a firing schedule: a per-occurrence Bernoulli ``probability``,
an explicit list of ``occurrences`` (0-based indices at which the fault
always fires), or both. Firing decisions are derived purely from
``sha256(plan seed, site, occurrence)`` (see
:mod:`repro.faults.injector`), so a plan replays bit-identically — the
same plan over the same campaign injects the same faults at the same
sites, regardless of host.

Fault kinds
-----------
``launch_failure``
    A kernel launch raises :class:`repro.errors.LaunchFaultError` before
    touching the device counters (CUDA "unspecified launch failure").
``sensor_dropout``
    A time/energy sensor read raises
    :class:`repro.errors.SensorDropoutError` (NVML read error).
``freq_rejection``
    ``set_core_frequency`` raises
    :class:`repro.errors.FrequencyRejectedError` (driver said no).
``worker_crash``
    The whole measurement attempt dies at startup with
    :class:`repro.errors.WorkerCrashError`.
``sensor_outlier``
    A sensor reading is silently multiplied by ``scale`` — *corrupting*:
    nothing raises, so retries cannot recover it (the five-repetition
    median is the paper's defence against exactly this).
``cache_corruption``
    A just-written cache entry is damaged on disk (``mode="truncate"``
    chops the file, ``mode="tamper"`` perturbs the stored value without
    fixing the digest). Recoverable by detection: the cache validates
    entries on read and degrades to a recompute.

The first four kinds raise :class:`repro.errors.TransientFaultError`
subclasses and are fully recoverable by the engine's retry loop; a plan
containing only result-preserving kinds reports
``result_preserving == True`` and shares cache entries with fault-free
campaigns.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple, Union

from repro.errors import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "TRANSIENT_KINDS",
    "CORRUPTING_KINDS",
    "CACHE_MODES",
    "PLAN_FORMAT",
    "PLAN_VERSION",
    "FaultSpec",
    "FaultPlan",
]

#: Every fault kind the injection layer understands.
FAULT_KINDS: Tuple[str, ...] = (
    "launch_failure",
    "sensor_dropout",
    "freq_rejection",
    "worker_crash",
    "sensor_outlier",
    "cache_corruption",
)

#: Kinds that raise a TransientFaultError and are recoverable by retry.
TRANSIENT_KINDS: Tuple[str, ...] = (
    "launch_failure",
    "sensor_dropout",
    "freq_rejection",
    "worker_crash",
)

#: Kinds that silently perturb measured values (undetectable, so not
#: recoverable by retry — they change campaign results).
CORRUPTING_KINDS: Tuple[str, ...] = ("sensor_outlier",)

#: Damage styles for ``cache_corruption``.
CACHE_MODES: Tuple[str, ...] = ("truncate", "tamper")

PLAN_FORMAT = "repro.fault_plan"
PLAN_VERSION = 1

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind plus its firing schedule and parameters.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Per-occurrence Bernoulli firing probability in ``[0, 1]``; the
        coin flip is the site/occurrence hash, so it is deterministic.
    occurrences:
        Explicit 0-based occurrence indices at which the fault always
        fires (per injection site). Because each index fires exactly
        once, a pure-occurrence spec injects a *bounded* number of
        faults, which makes recovery guarantees provable (see the chaos
        tests).
    scale:
        Multiplier applied to the reading for ``sensor_outlier``.
    mode:
        Damage style for ``cache_corruption`` (see :data:`CACHE_MODES`).
    """

    kind: str
    probability: float = 0.0
    occurrences: Tuple[int, ...] = ()
    scale: float = 8.0
    mode: str = "truncate"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not (0.0 <= float(self.probability) <= 1.0):
            raise ConfigurationError(
                f"fault probability must lie in [0, 1], got {self.probability}"
            )
        object.__setattr__(self, "probability", float(self.probability))
        occ = tuple(sorted(int(o) for o in self.occurrences))
        if any(o < 0 for o in occ):
            raise ConfigurationError("fault occurrences must be >= 0")
        object.__setattr__(self, "occurrences", occ)
        if self.probability == 0 and not occ:
            raise ConfigurationError(
                f"{self.kind}: fault spec can never fire; give it a probability "
                "or explicit occurrences"
            )
        if float(self.scale) <= 0:
            raise ConfigurationError("sensor_outlier scale must be > 0")
        object.__setattr__(self, "scale", float(self.scale))
        if self.mode not in CACHE_MODES:
            raise ConfigurationError(
                f"unknown cache corruption mode {self.mode!r}; expected one of {CACHE_MODES}"
            )

    @property
    def transient(self) -> bool:
        """Whether firing raises a recoverable :class:`TransientFaultError`."""
        return self.kind in TRANSIENT_KINDS

    @property
    def bounded(self) -> bool:
        """Whether this spec can fire only finitely often per site."""
        return self.probability == 0

    def as_record(self) -> Dict[str, Any]:
        """Plain-dict form for JSON plans (omits defaulted parameters)."""
        record: Dict[str, Any] = {"kind": self.kind}
        if self.probability > 0:
            record["probability"] = self.probability
        if self.occurrences:
            record["occurrences"] = list(self.occurrences)
        if self.kind == "sensor_outlier":
            record["scale"] = self.scale
        if self.kind == "cache_corruption":
            record["mode"] = self.mode
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "FaultSpec":
        """Inverse of :meth:`as_record`; rejects unknown fields loudly."""
        if not isinstance(record, dict):
            raise ConfigurationError(f"fault spec must be an object, got {record!r}")
        known = {"kind", "probability", "occurrences", "scale", "mode"}
        unknown = set(record) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault spec field(s) {sorted(unknown)}; expected {sorted(known)}"
            )
        if "kind" not in record:
            raise ConfigurationError("fault spec is missing 'kind'")
        return cls(
            kind=record["kind"],
            probability=record.get("probability", 0.0),
            occurrences=tuple(record.get("occurrences", ())),
            scale=record.get("scale", 8.0),
            mode=record.get("mode", "truncate"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative chaos experiment: which faults, how often.

    The plan seed roots every firing decision; two runs of the same plan
    over the same campaign are bit-identical chaos experiments. Plans
    are frozen, so every :class:`repro.runtime.engine.MeasurementTask`
    of a campaign can share one.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))
        specs = tuple(self.specs)
        for spec in specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"fault plan entries must be FaultSpec, got {type(spec).__name__}"
                )
        object.__setattr__(self, "specs", specs)

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    @property
    def result_preserving(self) -> bool:
        """True when a recovered run is bit-identical to a fault-free run.

        Transient kinds recover by retry and ``cache_corruption``
        recovers by detection; only the silently-corrupting kinds
        (:data:`CORRUPTING_KINDS`) change measured values, so their
        presence forces the engine to key cache entries by plan.
        """
        return all(s.kind not in CORRUPTING_KINDS for s in self.specs)

    def has_kind(self, kind: str) -> bool:
        """Whether any spec targets ``kind``."""
        return any(s.kind == kind for s in self.specs)

    def specs_for(self, *kinds: str) -> List[Tuple[int, FaultSpec]]:
        """``(index, spec)`` pairs whose kind is in ``kinds`` (plan order)."""
        return [(i, s) for i, s in enumerate(self.specs) if s.kind in kinds]

    def max_bounded_fires(self) -> int:
        """Upper bound on scheduled attempt-aborting fires across all specs.

        For a plan whose transient specs are purely bounded, a retry
        budget of this many retries per task is guaranteed to recover
        every transient fault (each scheduled occurrence can abort at
        most one attempt). Probability-based specs are unbounded and
        contribute 0; non-transient kinds (outliers, cache corruption)
        never abort an attempt and contribute 0.

        Occurrence counters are kept *per site*, and a ``sensor_dropout``
        spec is consulted at two sites (time and energy), so each of its
        occurrence entries can fire — and abort an attempt — twice.
        """
        total = 0
        for spec in self.specs:
            if spec.kind not in TRANSIENT_KINDS:
                continue
            sites = 2 if spec.kind == "sensor_dropout" else 1
            total += sites * len(spec.occurrences)
        return total

    # ------------------------------------------------------------------
    # identity & JSON
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of the plan (used in cache keys when needed)."""
        # Deferred import: repro.runtime imports repro.faults at package
        # init (the engine's resilience layer), so importing seeding here
        # at module level would be circular.
        from repro.runtime.seeding import stable_digest

        return stable_digest(self.as_record())

    def as_record(self) -> Dict[str, Any]:
        """Plain-dict form of the whole plan (``schema_version`` envelope)."""
        return {
            "format": PLAN_FORMAT,
            "schema_version": PLAN_VERSION,
            "seed": self.seed,
            "faults": [s.as_record() for s in self.specs],
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "FaultPlan":
        """Build a plan from a plain dict, validating against the spec schema.

        Validation is collect-then-raise: *every* invalid field is
        gathered into one :class:`repro.errors.SpecValidationError`
        (a :class:`ConfigurationError`) instead of failing on the first,
        so a hand-written plan with three mistakes reports all three.
        Plans written with the historical ``version`` envelope key load
        unchanged (``schema_version`` deprecation warning under lint).
        """
        # Deferred import: repro.specs imports this module for the kind
        # catalog, so importing it at module level would be circular.
        from repro.specs.fault_plan import FAULT_PLAN_SCHEMA
        from repro.specs.schema import load_clean

        clean = load_clean(FAULT_PLAN_SCHEMA, record, file="<fault plan>")
        return cls(
            seed=clean["seed"],
            specs=tuple(
                FaultSpec(
                    kind=f["kind"],
                    probability=f["probability"],
                    occurrences=tuple(f["occurrences"]),
                    scale=f["scale"],
                    mode=f["mode"],
                )
                for f in clean["faults"]
            ),
        )

    def to_json(self) -> str:
        """Pretty JSON form (canonical field values, human-readable layout)."""
        from repro.runtime.seeding import canonicalize  # deferred, see fingerprint()

        return json.dumps(canonicalize(self.as_record()), indent=2, sort_keys=True)

    def save(self, path: PathLike) -> None:
        """Write the plan to ``path`` as JSON, replacing it atomically."""
        from repro.runtime.cache import atomic_write  # deferred, see fingerprint()

        atomic_write(pathlib.Path(path), (self.to_json() + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: PathLike) -> "FaultPlan":
        """Read a plan previously written by :meth:`save` (or by hand).

        Unreadable, undecodable or unparsable files raise
        :class:`repro.errors.SpecError`, a :class:`ConfigurationError`.
        """
        from repro.specs.schema import read_spec_file  # deferred, see from_record()

        return cls.from_record(read_spec_file(path, "fault plan"))

    def describe(self) -> str:
        """One-line human summary for run logs."""
        if not self.specs:
            return f"fault plan (seed {self.seed}): empty"
        parts = []
        for s in self.specs:
            sched = []
            if s.probability > 0:
                sched.append(f"p={s.probability:g}")
            if s.occurrences:
                sched.append(f"at {list(s.occurrences)}")
            parts.append(f"{s.kind}[{', '.join(sched)}]")
        return f"fault plan (seed {self.seed}): " + ", ".join(parts)

    def __len__(self) -> int:
        return len(self.specs)
