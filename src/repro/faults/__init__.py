"""Deterministic fault injection for chaos-testing the campaign runtime.

The paper's measurements come from real GPUs where sensor glitches,
rejected frequency requests, and crashed runs are routine — that is why
its protocol medians over five repetitions. This package reproduces
those failure modes *deterministically* so the engine's recovery paths
can be tested bit-for-bit:

- :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultSpec`,
  the declarative, JSON-serializable chaos experiment;
- :mod:`repro.faults.injector` — :class:`FaultInjector`, firing
  decisions derived purely from ``sha256(plan seed, site, occurrence)``;
- :mod:`repro.faults.wrappers` — :class:`FaultyGPU`,
  :class:`FaultySensor`, :class:`FaultyResultCache` injection shells
  around the real device/sensor/cache layers;
- the campaign engine retries a task that hit a transient fault
  (:func:`repro.runtime.engine.execute_task_resilient`) at once, with
  no backoff, on a fresh device;
- :mod:`repro.faults.fleet` — precomputed fleet-scale GPU failure
  schedules for the datacenter simulator (same fault-hash discipline,
  one Bernoulli draw per GPU-tick);
- :mod:`repro.faults.drift` — :class:`DriftedApplication`, the silent
  failure mode: a workload whose behaviour shifts while its reported
  features do not (chaos input for the lifecycle loop).

Headline invariant (pinned by ``tests/runtime/test_resilience.py`` and
``tests/property/test_property_faults.py``): a campaign run under a
transient fault plan with retries enabled is **bit-identical** to the
fault-free campaign, in both serial and replay measurement modes, and
corrupted cache entries are detected and recomputed, never served. See
``docs/fault-injection.md``.
"""

from repro.faults.drift import DriftedApplication, drift_scale_at
from repro.faults.fleet import fleet_failure_schedule
from repro.faults.injector import FAULT_ERRORS, FaultEvent, FaultInjector, fault_hash_unit
from repro.faults.plan import (
    CACHE_MODES,
    CORRUPTING_KINDS,
    FAULT_KINDS,
    TRANSIENT_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.faults.wrappers import FaultyGPU, FaultyResultCache, FaultySensor

__all__ = [
    "CACHE_MODES",
    "CORRUPTING_KINDS",
    "FAULT_KINDS",
    "TRANSIENT_KINDS",
    "FAULT_ERRORS",
    "DriftedApplication",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FaultyGPU",
    "FaultyResultCache",
    "FaultySensor",
    "drift_scale_at",
    "fault_hash_unit",
    "fleet_failure_schedule",
]
