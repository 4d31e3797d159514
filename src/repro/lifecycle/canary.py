"""Shadow evaluation and the canary promotion gate.

A freshly retrained candidate never serves traffic directly. It is
first **shadow-evaluated**: both the candidate and the incumbent
re-predict the outcome log's shadow slice — real served requests with
real measured results — and each model's MAPE against the measured
values is computed. The replay is a pure function of (model, shadow
slice): the slice stores the exact features and advised clocks, and
:meth:`~repro.modeling.domain.DomainSpecificModel.predict_point_batch`
is bitwise-deterministic, so a canary decision can be reproduced from
the log alone.

:class:`CanaryController` then enforces the loop's core invariant — **a
promoted model is never worse than its predecessor on the shadow set**:

- candidate shadow MAPE <= incumbent shadow MAPE (+ tolerance) →
  promote, recording both figures in the ledger;
- otherwise → the candidate is quarantined and the active pointer
  stays on (or is rolled back to) the incumbent, also recorded.

Either way the registry keeps the candidate's artifact (quarantined
versions are evidence, not garbage); only the ledger's pointer state
decides what serves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.errors import LifecycleError
from repro.lifecycle.ledger import PromotionLedger
from repro.lifecycle.outcome_log import OutcomeRecord

__all__ = ["ShadowReport", "PromotionDecision", "shadow_evaluate", "CanaryController"]


@dataclass(frozen=True)
class ShadowReport:
    """One model's accuracy over a shadow slice of live traffic."""

    mape: float
    n_records: int
    time_mape: float
    energy_mape: float

    def as_record(self) -> Dict[str, Any]:
        """Plain-dict view (ledger payloads, benchmarks)."""
        return {
            "mape": self.mape,
            "n_records": self.n_records,
            "time_mape": self.time_mape,
            "energy_mape": self.energy_mape,
        }


def shadow_evaluate(model, records: Sequence[OutcomeRecord]) -> ShadowReport:
    """Replay a shadow slice through ``model``; MAPE vs measured truth.

    One batched forest pass over every (features, advised clock) row —
    no live traffic is touched, and equal inputs give bitwise-equal
    reports.
    """
    if not records:
        raise LifecycleError("shadow evaluation needs at least one outcome record")
    features_rows = [rec.features for rec in records]
    freqs = [rec.freq_mhz for rec in records]
    times, energies = model.predict_point_batch(features_rows, freqs)
    meas_t = np.array([rec.measured_time_s for rec in records])
    meas_e = np.array([rec.measured_energy_j for rec in records])
    t_mape = float(np.mean(np.abs(times - meas_t) / meas_t)) * 100.0
    e_mape = float(np.mean(np.abs(energies - meas_e) / meas_e)) * 100.0
    return ShadowReport(
        mape=(t_mape + e_mape) / 2.0,
        n_records=len(records),
        time_mape=t_mape,
        energy_mape=e_mape,
    )


@dataclass(frozen=True)
class PromotionDecision:
    """Outcome of one canary consideration, as recorded in the ledger."""

    promoted: bool
    name: str
    incumbent_version: int
    candidate_version: int
    incumbent_mape: float
    candidate_mape: float
    shadow_size: int
    reason: str

    def as_record(self) -> Dict[str, Any]:
        """Plain-dict view (CLI output, benchmark records)."""
        return {
            "promoted": self.promoted,
            "name": self.name,
            "incumbent_version": self.incumbent_version,
            "candidate_version": self.candidate_version,
            "incumbent_mape": self.incumbent_mape,
            "candidate_mape": self.candidate_mape,
            "shadow_size": self.shadow_size,
            "reason": self.reason,
        }


class CanaryController:
    """Promotion gatekeeper for one registered model name.

    Parameters
    ----------
    registry:
        The :class:`~repro.serving.ModelRegistry` holding the versions.
    name:
        The registered model name this controller governs.
    ledger:
        The promotion ledger; defaults to the conventional location
        inside the registry (``<root>/<name>/LEDGER.jsonl``).
    tolerance:
        Additive slack (percentage points) on the no-worse gate. The
        default 0.0 is the strict invariant; a small positive value
        accepts statistically-equal candidates (fresher training data)
        whose shadow MAPE is within noise of the incumbent's.
    """

    def __init__(
        self,
        registry,
        name: str,
        ledger: Optional[PromotionLedger] = None,
        tolerance: float = 0.0,
    ) -> None:
        if tolerance < 0.0 or not math.isfinite(float(tolerance)):
            raise LifecycleError(
                f"canary tolerance must be finite and >= 0, got {tolerance!r}"
            )
        self.registry = registry
        self.name = str(name)
        self.ledger = ledger or PromotionLedger.for_model(registry.root, name)
        self.tolerance = float(tolerance)

    # ------------------------------------------------------------------
    # pointer state
    # ------------------------------------------------------------------
    def active_version(self) -> Optional[int]:
        """The version the ledger says should serve (``None`` = latest).

        A model without lifecycle history has no ledger; the registry's
        newest version serves, exactly as ``repro serve`` always did.
        """
        state = self.ledger.replay()
        if state.active_version is not None:
            return state.active_version
        versions = [m.version for m in self.registry.list() if m.name == self.name]
        return max(versions) if versions else None

    def record_register(self, manifest, train_fingerprint: Optional[str] = None) -> None:
        """Ledger a freshly registered candidate version."""
        self.ledger.append(
            "register",
            {
                "name": manifest.name,
                "version": manifest.version,
                "artifact_sha256": manifest.artifact_sha256,
                "train_fingerprint": train_fingerprint or manifest.train_fingerprint,
            },
        )

    def record_drift(self, event) -> None:
        """Ledger a drift-monitor transition (audit context)."""
        self.ledger.append("drift", event.as_record())

    # ------------------------------------------------------------------
    # the gate
    # ------------------------------------------------------------------
    def consider(
        self,
        candidate_version: int,
        shadow: Sequence[OutcomeRecord],
        incumbent_version: Optional[int] = None,
    ) -> PromotionDecision:
        """Shadow-evaluate a candidate against the incumbent and decide.

        Promotes only when the candidate's shadow MAPE is no worse than
        the incumbent's (within ``tolerance``); otherwise rolls the
        pointer back to the incumbent and quarantines the candidate. An
        empty shadow slice is an automatic rejection — promotion without
        evidence would be faith, not a gate.
        """
        if incumbent_version is None:
            incumbent_version = self.active_version()
        if incumbent_version is None:
            raise LifecycleError(
                f"no incumbent version for {self.name!r}; register one first"
            )
        incumbent_version = int(incumbent_version)
        candidate_version = int(candidate_version)
        quarantined = set(self.ledger.replay().quarantined)
        if candidate_version in quarantined:
            raise LifecycleError(
                f"{self.name}:v{candidate_version} is quarantined and can "
                "never be promoted"
            )
        if not shadow:
            return self._reject(
                candidate_version,
                incumbent_version,
                incumbent_mape=float("nan"),
                candidate_mape=float("nan"),
                shadow_size=0,
                reason="no shadow traffic to evaluate on",
            )
        incumbent_model, _ = self.registry.resolve(self.name, incumbent_version)
        candidate_model, _ = self.registry.resolve(self.name, candidate_version)
        inc = shadow_evaluate(incumbent_model, shadow)
        cand = shadow_evaluate(candidate_model, shadow)
        if cand.mape <= inc.mape + self.tolerance:
            self.ledger.append(
                "promote",
                {
                    "name": self.name,
                    "from_version": incumbent_version,
                    "to_version": candidate_version,
                    "incumbent_mape": inc.mape,
                    "candidate_mape": cand.mape,
                    "shadow_size": inc.n_records,
                },
            )
            return PromotionDecision(
                promoted=True,
                name=self.name,
                incumbent_version=incumbent_version,
                candidate_version=candidate_version,
                incumbent_mape=inc.mape,
                candidate_mape=cand.mape,
                shadow_size=inc.n_records,
                reason="candidate shadow MAPE no worse than incumbent",
            )
        return self._reject(
            candidate_version,
            incumbent_version,
            incumbent_mape=inc.mape,
            candidate_mape=cand.mape,
            shadow_size=inc.n_records,
            reason=(
                f"candidate shadow MAPE {cand.mape:.3f}% worse than "
                f"incumbent {inc.mape:.3f}%"
            ),
        )

    def _reject(
        self,
        candidate_version: int,
        incumbent_version: int,
        incumbent_mape: float,
        candidate_mape: float,
        shadow_size: int,
        reason: str,
    ) -> PromotionDecision:
        # NaN never enters canonical JSON: an evidence-free rejection
        # records its MAPEs as null, not NaN.
        inc_rec = None if math.isnan(incumbent_mape) else incumbent_mape
        cand_rec = None if math.isnan(candidate_mape) else candidate_mape
        self.ledger.append(
            "rollback",
            {
                "name": self.name,
                "from_version": candidate_version,
                "to_version": incumbent_version,
                "incumbent_mape": inc_rec,
                "candidate_mape": cand_rec,
                "shadow_size": shadow_size,
                "reason": reason,
            },
        )
        self.ledger.append(
            "quarantine",
            {"name": self.name, "version": candidate_version, "reason": reason},
        )
        return PromotionDecision(
            promoted=False,
            name=self.name,
            incumbent_version=incumbent_version,
            candidate_version=candidate_version,
            incumbent_mape=incumbent_mape,
            candidate_mape=candidate_mape,
            shadow_size=shadow_size,
            reason=reason,
        )

    def promote_to(self, to_version: int, reason: str = "manual promotion") -> int:
        """Operator-forced promotion (no shadow evidence); returns the version.

        The candidate must exist in the registry (integrity-verified) and
        must not be quarantined — a quarantined version has already been
        proven worse on real traffic and stays unpromotable even by hand.
        The entry records null MAPEs: the ledger never pretends evidence
        existed.
        """
        to_version = int(to_version)
        state = self.ledger.replay()
        if to_version in set(state.quarantined):
            raise LifecycleError(
                f"{self.name}:v{to_version} is quarantined and can never be promoted"
            )
        self.registry.resolve(self.name, to_version)
        self.ledger.append(
            "promote",
            {
                "name": self.name,
                "from_version": state.active_version,
                "to_version": to_version,
                "incumbent_mape": None,
                "candidate_mape": None,
                "shadow_size": 0,
                "reason": reason,
            },
        )
        return to_version

    def rollback(self, to_version: Optional[int] = None, reason: str = "manual rollback") -> int:
        """Move the active pointer back; returns the restored version.

        Defaults to the ledger's recorded previous version; an explicit
        ``to_version`` must exist in the registry and not be
        quarantined.
        """
        state = self.ledger.replay()
        target = to_version if to_version is not None else state.previous_version
        if target is None:
            raise LifecycleError(
                f"{self.name!r}: no previous version recorded to roll back to"
            )
        target = int(target)
        if target in set(state.quarantined):
            raise LifecycleError(
                f"{self.name}:v{target} is quarantined; refusing to roll back onto it"
            )
        # Resolving verifies the artifact still exists and is untampered.
        self.registry.resolve(self.name, target)
        current = state.active_version
        self.ledger.append(
            "rollback",
            {
                "name": self.name,
                "from_version": current,
                "to_version": target,
                "incumbent_mape": None,
                "candidate_mape": None,
                "shadow_size": 0,
                "reason": reason,
            },
        )
        return target
