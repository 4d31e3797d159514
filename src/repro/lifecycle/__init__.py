"""Model lifecycle: drift detection, shadow retraining, canary rollout.

This package closes the loop the rest of the toolchain leaves open:
models are trained (:mod:`repro.experiments`), registered
(:mod:`repro.serving.registry`) and served (:mod:`repro.serving.service`)
— but a served model goes stale the moment the workload shifts under it.
The lifecycle layer observes served outcomes
(:class:`~repro.lifecycle.outcome_log.OutcomeLog`), detects real drift
with hysteresis (:class:`~repro.lifecycle.drift.DriftMonitor`), retrains
candidates on the live workload
(:class:`~repro.lifecycle.retrain.Retrainer`), and promotes them only if
shadow evaluation proves them no worse than the incumbent
(:class:`~repro.lifecycle.canary.CanaryController`) — with every
decision chained into an auditable promotion ledger
(:class:`~repro.lifecycle.ledger.PromotionLedger`).

:func:`~repro.lifecycle.loop.run_lifecycle` orchestrates the whole loop
from a :class:`~repro.specs.lifecycle.LifecycleSpec`; see
``docs/lifecycle.md`` for the architecture walk-through.
"""

from repro.lifecycle.canary import (
    CanaryController,
    PromotionDecision,
    ShadowReport,
    shadow_evaluate,
)
from repro.lifecycle.drift import DriftEvent, DriftMonitor
from repro.lifecycle.ledger import (
    LEDGER_FORMAT,
    LEDGER_KINDS,
    LEDGER_VERSION,
    LedgerState,
    PromotionLedger,
)
from repro.lifecycle.loop import (
    LifecycleResult,
    build_retrainer,
    build_workload,
    retrain_candidate,
    run_lifecycle,
)
from repro.lifecycle.outcome_log import OutcomeLog, OutcomeRecord
from repro.lifecycle.retrain import Retrainer

__all__ = [
    "LEDGER_FORMAT",
    "LEDGER_KINDS",
    "LEDGER_VERSION",
    "CanaryController",
    "DriftEvent",
    "DriftMonitor",
    "LedgerState",
    "LifecycleResult",
    "OutcomeLog",
    "OutcomeRecord",
    "PromotionDecision",
    "PromotionLedger",
    "Retrainer",
    "ShadowReport",
    "build_retrainer",
    "build_workload",
    "retrain_candidate",
    "run_lifecycle",
    "shadow_evaluate",
]
