"""The closed train→serve→observe→retrain loop, end to end.

:func:`run_lifecycle` executes one :class:`~repro.specs.lifecycle.LifecycleSpec`:

1. **bootstrap** — if the served name has no registered version yet,
   characterize the spec's workload, fit and register v1, and ledger it;
2. **serve** — stand up an :class:`~repro.serving.AdvisorService` on the
   ledger's active version, with an
   :class:`~repro.lifecycle.outcome_log.OutcomeLog` hooked into the
   outcome channel;
3. **observe** — each epoch issues a deterministic stream of advice
   requests, *measures* what following the advice actually cost
   (optionally under injected workload drift), and feeds the rolling
   MAPE to the :class:`~repro.lifecycle.drift.DriftMonitor`;
4. **retrain + canary** — when the monitor fires and the loop is closed,
   a candidate is retrained on the live (possibly drifted) workload,
   shadow-evaluated against the incumbent on the outcome log's shadow
   slice, and promoted through the
   :class:`~repro.lifecycle.canary.CanaryController` only if no worse —
   otherwise quarantined while the incumbent keeps serving.

Every random choice — request order, measurement noise, reservoir
draws, campaign seeds — derives from the spec seed through
:func:`~repro.runtime.seeding.derive_task_seed`, so two runs of the same
spec produce byte-identical ledgers, identical promotion decisions, and
identical per-epoch MAPE trajectories. ``closed_loop=False`` runs the
identical traffic against a frozen model (no retraining, no promotion):
the control arm the lifecycle benchmark compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.lifecycle.canary import CanaryController, PromotionDecision
from repro.lifecycle.drift import DriftMonitor
from repro.lifecycle.outcome_log import OutcomeLog
from repro.lifecycle.retrain import Retrainer
from repro.runtime.seeding import derive_task_seed

__all__ = [
    "LifecycleResult",
    "build_workload",
    "build_retrainer",
    "retrain_candidate",
    "run_lifecycle",
]

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class LifecycleResult:
    """Everything one lifecycle run produced, in replayable form."""

    spec_fingerprint: str
    closed_loop: bool
    initial_version: int
    final_version: int
    epochs: Tuple[Dict[str, Any], ...]
    decisions: Tuple[PromotionDecision, ...]
    ledger_state: Dict[str, Any]
    final_rolling_mape: float

    def as_record(self) -> Dict[str, Any]:
        """Canonical plain-dict form (benchmark records, CLI output).

        MAPEs can be NaN (empty windows); they are recorded as ``None``
        so the record always survives canonical JSON.
        """
        import math

        def _num(v: float) -> Optional[float]:
            return None if isinstance(v, float) and math.isnan(v) else v

        return {
            "spec_fingerprint": self.spec_fingerprint,
            "closed_loop": self.closed_loop,
            "initial_version": self.initial_version,
            "final_version": self.final_version,
            "epochs": [
                {**row, "rolling_mape": _num(row["rolling_mape"])}
                for row in self.epochs
            ],
            "decisions": [d.as_record() for d in self.decisions],
            "ledger_state": self.ledger_state,
            "final_rolling_mape": _num(self.final_rolling_mape),
        }


# ---------------------------------------------------------------------------
# construction helpers (shared with the CLI's one-shot retrain)
# ---------------------------------------------------------------------------
def build_workload(spec) -> List[object]:
    """The spec's base (un-drifted) application population.

    The catalog's cross product of the workload axes, in a deterministic
    order — the same population both training campaigns and the serving
    traffic stream draw from.
    """
    from repro.experiments.workloads import workload_kind

    kind = workload_kind(spec.app_kind)
    return kind.apps({name: getattr(spec, name) for name in kind.param_names})


def build_retrainer(spec, registry) -> Retrainer:
    """The spec's :class:`Retrainer` (training sweep resolved on-device).

    The sweep is the device table's ``freq_count``-point subsample with
    the baseline bin guaranteed in (the domain model normalizes against
    it); auto-governed devices with no default clock train against the
    top bin instead.
    """
    from repro.experiments.datasets import default_training_freqs, training_baseline_mhz
    from repro.experiments.workloads import workload_kind
    from repro.synergy.api import builtin_device

    device = builtin_device(spec.device_name, seed=spec.seed)
    freqs = default_training_freqs(device, spec.freq_count)
    return Retrainer(
        registry=registry,
        name=spec.model_name,
        feature_names=workload_kind(spec.app_kind).feature_names,
        freqs_mhz=tuple(freqs),
        baseline_freq_mhz=training_baseline_mhz(device, freqs),
        seed=spec.seed,
        repetitions=spec.repetitions,
        n_trees=spec.trees,
        app=spec.app_kind,
        device_name=spec.device_name,
    )


def retrain_candidate(retrainer: Retrainer, controller: CanaryController, apps):
    """Retrain the served name's next generation, register it and ledger it.

    Generation *g* is the name's *g*-th registered version, so it is the
    count of versions already there. Returns ``(generation, manifest)``.
    """
    generation = sum(m.name == retrainer.name for m in retrainer.registry.list())
    manifest = retrainer.retrain(apps, generation=generation)
    controller.record_register(manifest, retrainer.train_fingerprint(generation))
    return generation, manifest


def _registry_for(spec):
    from repro.serving.registry import ModelRegistry
    from repro.specs.scenario import resolve_ref

    return ModelRegistry(resolve_ref(spec.registry, spec.base_dir))


def _measure_outcome(spec, app, freq_mhz: float, epoch: int, request: int):
    """Measure one followed advice at its advised clock; ``(time, energy)``.

    Each measurement runs on a freshly seeded platform whose seed
    derives from (spec seed, epoch, request) — independent of advice
    content, so the closed-loop and frozen-baseline arms observe
    identical noise streams and differ only in what their models
    predicted.
    """
    from repro.synergy.api import builtin_device
    from repro.synergy.runner import measure

    seed = derive_task_seed(spec.seed, "lifecycle-outcome", epoch, request)
    device = builtin_device(spec.device_name, seed=seed)
    device.set_core_frequency(freq_mhz)
    time_s, energy_j, _times, _energies = measure(app, device, 1)
    return time_s, energy_j


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------
def run_lifecycle(
    spec,
    closed_loop: bool = True,
    progress: Optional[ProgressFn] = None,
) -> LifecycleResult:
    """Run one lifecycle spec end to end; see the module docstring.

    ``closed_loop=False`` freezes the bootstrap model: identical traffic
    and measurements, but drift events trigger no retraining — the
    degradation control arm.
    """
    from repro.faults.drift import DriftedApplication, drift_scale_at
    from repro.serving.service import AdvisorService

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    registry = _registry_for(spec)
    retrainer = build_retrainer(spec, registry)
    controller = CanaryController(registry, spec.model_name)
    base_apps = build_workload(spec)

    # -- bootstrap ----------------------------------------------------------
    active = controller.active_version()
    if active is None:
        say(f"bootstrap: training {spec.model_name} v1 on {len(base_apps)} app(s)")
        retrain_candidate(retrainer, controller, base_apps)
        active = controller.active_version()

    service = AdvisorService.from_registry(
        registry, spec.model_name, spec.freq_grid(), version=active
    )
    initial_version = int(service.manifest.version)

    log = OutcomeLog(
        window=spec.drift_window,
        shadow_capacity=spec.shadow_size,
        seed=derive_task_seed(spec.seed, "lifecycle-shadow"),
    )
    service.add_outcome_hook(log.hook())
    monitor = DriftMonitor(
        enter_mape=spec.enter_mape,
        exit_mape=spec.exit_mape,
        patience=spec.patience,
        min_samples=spec.min_samples,
    )

    epoch_rows: List[Dict[str, Any]] = []
    decisions: List[PromotionDecision] = []
    # A retrained candidate does not promote in the epoch it was born:
    # it waits one epoch while the incumbent keeps serving, so the
    # shadow slice it is judged on is entirely post-drift evidence.
    pending_candidate: Optional[int] = None

    for epoch in range(spec.epochs):
        scale = 1.0
        if spec.inject_epoch is not None:
            scale = drift_scale_at(epoch, spec.inject_epoch, spec.inject_work_scale)
        apps = (
            base_apps
            if scale == 1.0
            else [DriftedApplication(app, work_scale=scale) for app in base_apps]
        )

        # -- serve + observe one epoch of traffic --------------------------
        for request in range(spec.requests_per_epoch):
            pick = derive_task_seed(spec.seed, "lifecycle-req", epoch, request)
            app = apps[pick % len(apps)]
            advice = service.advise(app.domain_features)
            time_s, energy_j = _measure_outcome(
                spec, app, advice.freq_mhz, epoch, request
            )
            service.record_outcome(app.domain_features, advice, time_s, energy_j)

        mape = log.rolling_mape()
        event = monitor.observe(mape, n_samples=len(log))
        row: Dict[str, Any] = {
            "epoch": epoch,
            "work_scale": scale,
            "rolling_mape": mape,
            "window_size": len(log),
            "drifted": monitor.drifted,
            "served_version": int(service.manifest.version),
            "event": None if event is None else event.kind,
            "promoted": False,
        }
        say(
            f"epoch {epoch}: mape={mape:.2f}% scale={scale:g} "
            f"v{row['served_version']}"
            + (f" [{event.kind}]" if event is not None else "")
        )

        # Every monitor transition is ledgered, whatever else this epoch
        # decides — the audit trail explains the decisions around it.
        if event is not None:
            controller.record_drift(event)

        # -- canary: judge last epoch's candidate on this epoch's evidence -
        if closed_loop and pending_candidate is not None:
            decision = controller.consider(pending_candidate, log.shadow_slice())
            decisions.append(decision)
            pending_candidate = None
            if decision.promoted:
                model, man = registry.resolve(
                    spec.model_name, decision.candidate_version
                )
                service.swap_model(model, man.artifact_sha256, man)
                # Old-model outcomes must not be held against the newly
                # promoted model.
                log.clear()
                monitor.reset()
                row["promoted"] = True
                row["served_version"] = int(man.version)
                say(
                    f"epoch {epoch}: promoted v{decision.candidate_version} "
                    f"({decision.candidate_mape:.2f}% vs incumbent "
                    f"{decision.incumbent_mape:.2f}%)"
                )
            else:
                say(
                    f"epoch {epoch}: rejected v{decision.candidate_version} "
                    f"({decision.reason})"
                )

        # -- retrain on drift (closed loop only) ---------------------------
        elif closed_loop and event is not None and event.kind == "drift":
            generation, manifest = retrain_candidate(retrainer, controller, apps)
            say(f"epoch {epoch}: drift — retraining generation {generation}")
            pending_candidate = int(manifest.version)
            # Fresh evidence era: the canary must be judged on traffic
            # observed under the regime that triggered the drift, not on
            # a reservoir dominated by pre-drift records.
            log.clear()
        epoch_rows.append(row)

    return LifecycleResult(
        spec_fingerprint=spec.fingerprint(),
        closed_loop=closed_loop,
        initial_version=initial_version,
        final_version=int(service.manifest.version),
        epochs=tuple(epoch_rows),
        decisions=tuple(decisions),
        ledger_state=controller.ledger.replay().as_record(),
        final_rolling_mape=epoch_rows[-1]["rolling_mape"] if epoch_rows else float("nan"),
    )
