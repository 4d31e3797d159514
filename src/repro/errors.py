"""Exception hierarchy for the repro library.

A single small hierarchy lets callers catch everything library-specific
with ``except ReproError`` while still being able to discriminate device
misuse from modeling misuse.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DeviceError",
    "FrequencyError",
    "KernelError",
    "ModelNotFittedError",
    "DatasetError",
    "ArtifactError",
    "ArtifactSchemaError",
    "ConfigurationError",
    "SpecError",
    "SpecValidationError",
    "RegistryError",
    "ModelIntegrityError",
    "ServingError",
    "FleetError",
    "LifecycleError",
    "LedgerError",
    "TransientFaultError",
    "LaunchFaultError",
    "SensorDropoutError",
    "FrequencyRejectedError",
    "WorkerCrashError",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class DeviceError(ReproError):
    """Invalid use of a simulated device (e.g. launching on a closed device)."""


class FrequencyError(DeviceError):
    """A requested frequency is outside the device's supported range."""


class KernelError(ReproError):
    """A kernel specification or launch configuration is invalid."""


class ModelNotFittedError(ReproError):
    """A predictor was used before ``fit`` was called."""


class DatasetError(ReproError):
    """A training/validation dataset is malformed or empty."""


class ArtifactError(DatasetError):
    """A persisted model artifact is unreadable, truncated, or malformed.

    Raised by :mod:`repro.io.serialization` loaders instead of leaking
    ``KeyError``/``zipfile`` internals; subclasses :class:`DatasetError`
    so pre-existing callers keep working.
    """


class ArtifactSchemaError(ArtifactError):
    """A model artifact was written under an incompatible schema version."""


class ConfigurationError(ReproError):
    """An experiment or application configuration is invalid."""


class SpecError(ConfigurationError):
    """A declarative spec artifact (campaign, scenario, ...) is unusable.

    Subclasses :class:`ConfigurationError` so pre-spec callers that catch
    configuration problems keep working unchanged.
    """


class SpecValidationError(SpecError):
    """A spec failed schema validation; carries the full diagnostic list.

    Unlike a plain message, ``diagnostics`` holds every
    :class:`repro.analysis.diagnostics.Diagnostic` the validator
    collected (collect-then-raise), so callers — and ``repro lint`` —
    see *all* problems in one pass instead of the first.
    """

    def __init__(self, kind: str, diagnostics) -> None:
        self.kind = kind
        self.diagnostics = list(diagnostics)
        errors = [
            d for d in self.diagnostics if getattr(d.severity, "value", "") == "error"
        ]
        lines = [f"invalid {kind} ({len(errors)} error(s)):"]
        lines += [f"  - [{d.rule}] {d.message}" for d in errors]
        super().__init__("\n".join(lines))


class RegistryError(ReproError):
    """A model-registry operation is invalid (unknown model, bad name, ...)."""


class ModelIntegrityError(RegistryError):
    """A registered artifact or manifest failed digest verification.

    The serving layer treats this as fatal for the affected model:
    tampered or bit-rotted artifacts are reported, never served.
    """


class ServingError(ReproError):
    """An advisor request cannot be satisfied (e.g. infeasible objective)."""


class FleetError(ReproError):
    """A fleet simulation is misconfigured (bad mode, model/job mismatch)."""


class LifecycleError(ReproError):
    """The train→serve→observe→retrain loop hit an invalid state.

    Raised by :mod:`repro.lifecycle` for misuse (non-finite measured
    outcomes, inconsistent drift thresholds, retraining without a
    workload) — never for an ordinary *decision* like a rejected
    candidate, which is a recorded rollback, not an error.
    """


class LedgerError(LifecycleError):
    """The promotion ledger is corrupt, tampered, or out of sequence.

    The ledger is the audit trail every promotion/rollback decision is
    appended to; a broken hash chain means the recorded history can no
    longer be trusted, so reads fail loudly instead of returning a
    partial state.
    """


class TransientFaultError(ReproError):
    """A recoverable injected fault (see :mod:`repro.faults`).

    Raised only by the deterministic fault-injection layer; retrying the
    whole measurement attempt (fresh device, fresh sensors, same task
    seed) is always a valid recovery, and a recovered attempt is
    bit-identical to a fault-free one.
    """


class LaunchFaultError(TransientFaultError):
    """A kernel launch failed transiently (device counters untouched)."""


class SensorDropoutError(TransientFaultError):
    """A sensor read returned no sample (NVML-style read error)."""


class FrequencyRejectedError(TransientFaultError):
    """The driver transiently rejected a ``set_frequency`` request."""


class WorkerCrashError(TransientFaultError):
    """A measurement attempt died at startup, before touching the device."""
