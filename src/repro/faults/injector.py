"""Deterministic fault-firing decisions and the injection log.

The injector answers exactly one question — *does a fault fire at this
site, on this occurrence?* — and answers it from pure values:

``unit = sha256(plan seed, site, occurrence) -> [0, 1)``

A probability-``p`` spec fires when ``unit < p``; an occurrence-list
spec fires when the 0-based occurrence index is in its list. Nothing
depends on wall-clock, process ids, execution interleaving, or RNG
state, so any chaos run replays bit-identically from ``(plan, scope)``
— the reproducibility contract the chaos tests pin.

Sites are short strings (``"gpu.launch"``, ``"sensor.energy"``,
``"worker"``, ``"cache.put"``); the injector's ``scope`` (typically the
campaign task key) is folded into the hashed site so different tasks see
decorrelated fault streams while each task's stream is independent of
every other — which is what keeps a chaos campaign identical whichever
of its points the cache already holds.

Occurrence counters are *per injector, per site* and persist across
retry attempts: a retried task continues the occurrence sequence instead
of replaying it, so a transient fault does not re-fire identically on
every retry (which would make recovery impossible).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Type

from repro.errors import (
    FrequencyRejectedError,
    LaunchFaultError,
    SensorDropoutError,
    TransientFaultError,
    WorkerCrashError,
)
from repro.faults.plan import FaultPlan, FaultSpec

__all__ = [
    "FAULT_ERRORS",
    "SITE_CACHE_PUT",
    "SITE_LAUNCH",
    "SITE_SENSOR_ENERGY",
    "SITE_SENSOR_TIME",
    "SITE_SET_FREQUENCY",
    "SITE_WORKER",
    "FaultEvent",
    "FaultInjector",
    "fault_hash_unit",
]

#: Injection sites used by the wrappers and the engine (documented in
#: docs/fault-injection.md). They live here — not in ``wrappers`` — so
#: the engine can name sites without importing the wrapper classes at
#: module level (which would be circular: wrappers subclass the cache).
SITE_LAUNCH = "gpu.launch"
SITE_SET_FREQUENCY = "gpu.set_frequency"
SITE_SENSOR_TIME = "sensor.time"
SITE_SENSOR_ENERGY = "sensor.energy"
SITE_WORKER = "worker"
SITE_CACHE_PUT = "cache.put"

#: Exception class raised per transient fault kind.
FAULT_ERRORS: Dict[str, Type[TransientFaultError]] = {
    "launch_failure": LaunchFaultError,
    "sensor_dropout": SensorDropoutError,
    "freq_rejection": FrequencyRejectedError,
    "worker_crash": WorkerCrashError,
}


def fault_hash_unit(seed: int, site: str, occurrence: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one fault decision.

    The 8-byte prefix of ``sha256(seed \\x1f site \\x1f occurrence)``
    scaled by ``2**64``; equal inputs always give the same value, and
    any input change decorrelates the draw completely.
    """
    h = hashlib.sha256()
    h.update(str(int(seed)).encode("utf-8"))
    h.update(b"\x1f")
    h.update(site.encode("utf-8"))
    h.update(b"\x1f")
    h.update(str(int(occurrence)).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for logs, stats, and replay verification."""

    kind: str
    site: str
    occurrence: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}@{self.site}#{self.occurrence}"


class FaultInjector:
    """Stateful decision engine for one scope (typically one campaign task).

    Parameters
    ----------
    plan:
        The declarative fault plan.
    scope:
        Identity prefix folded into every hashed site. Two injectors
        with equal ``(plan, scope)`` make identical decisions; different
        scopes are decorrelated.
    """

    def __init__(self, plan: FaultPlan, scope: str = "") -> None:
        self.plan = plan
        self.scope = str(scope)
        self._occurrences: Dict[str, int] = {}
        self.events: List[FaultEvent] = []

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def _hash_site(self, site: str, spec_index: int) -> str:
        prefix = f"{self.scope}/" if self.scope else ""
        return f"{prefix}{site}#{spec_index}"

    def check(self, site: str, *kinds: str) -> Optional[FaultSpec]:
        """Advance ``site`` by one occurrence and test every matching spec.

        One call is one injection opportunity: the site's occurrence
        counter increments exactly once regardless of how many kinds are
        probed, so sites shared by several fault kinds (e.g. a sensor
        read that can drop out *or* read an outlier) stay deterministic.
        Returns the first firing spec in plan order, or ``None``.
        """
        occurrence = self._occurrences.get(site, 0)
        self._occurrences[site] = occurrence + 1
        for index, spec in self.plan.specs_for(*kinds):
            fired = occurrence in spec.occurrences
            if not fired and spec.probability > 0:
                unit = fault_hash_unit(
                    self.plan.seed, self._hash_site(site, index), occurrence
                )
                fired = unit < spec.probability
            if fired:
                self.events.append(FaultEvent(spec.kind, site, occurrence))
                return spec
        return None

    def maybe_raise(self, site: str, *kinds: str) -> None:
        """Like :meth:`check`, but raise the kind's transient error on fire."""
        spec = self.check(site, *kinds)
        if spec is not None:
            raise FAULT_ERRORS[spec.kind](
                f"injected {spec.kind} at {site} "
                f"(occurrence {self._occurrences[site] - 1}, plan seed {self.plan.seed})"
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def fault_count(self) -> int:
        """Total faults fired by this injector so far."""
        return len(self.events)

    def occurrence_count(self, site: str) -> int:
        """How many injection opportunities ``site`` has seen."""
        return self._occurrences.get(site, 0)

    def counts_by_kind(self) -> Dict[str, int]:
        """Fired-fault totals keyed by kind (kinds that fired only)."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector(seed={self.plan.seed}, scope={self.scope!r}, "
            f"fired={self.fault_count})"
        )
