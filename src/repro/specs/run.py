"""Execute validated specs: the engine behind ``repro run``.

:func:`run_campaign` turns a :class:`~repro.specs.campaign.CampaignSpec`
into a seeded device (built-in names resolve through
:func:`~repro.synergy.api.builtin_device`), an engine, and one
:func:`~repro.experiments.datasets.build_campaign` call. ``repro
campaign`` builds its spec from flags and runs through here too, so a
spec-driven run is bit-identical to the equivalent CLI invocation (the
acceptance test pins this).

:func:`run_scenario` layers the scenario extras on top: the optional
fault plan rides into the engine, and the optional objective is
evaluated per swept input — against the *measured* trade-off profile by
default, or against a registered model's predicted profile when the
objective names one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError, SpecError
from repro.modeling.domain import TradeoffPrediction, stack_memory_rows
from repro.specs.campaign import CampaignSpec
from repro.specs.device_table import load_device_table
from repro.specs.scenario import ObjectiveRef, ScenarioSpec, resolve_ref

__all__ = [
    "AdviceRow",
    "ScenarioOutcome",
    "build_device",
    "build_engine",
    "run_campaign",
    "run_scenario",
    "measured_tradeoff",
]


def build_device(spec: CampaignSpec):
    """Construct the :class:`SynergyDevice` a campaign spec names.

    A built-in name resolves through
    :func:`~repro.synergy.api.builtin_device` seeded with the campaign
    seed — the exact objects ``repro campaign`` uses — so cached results
    and sensor streams line up bit-for-bit.
    """
    from repro.synergy.api import SynergyDevice, builtin_device

    if spec.device_table is not None:
        from repro.hw.device import SimulatedGPU

        dev_spec = load_device_table(resolve_ref(spec.device_table, spec.base_dir))
        return SynergyDevice(SimulatedGPU(dev_spec), seed=spec.engine.seed)
    return builtin_device(spec.device_name or "v100", seed=spec.engine.seed)


def build_engine(spec: CampaignSpec, fault_plan=None):
    """Construct the :class:`CampaignEngine` a campaign spec configures."""
    from repro.runtime import CampaignEngine, ResultCache

    cache = (
        None if spec.engine.cache_dir is None else ResultCache(spec.engine.cache_dir)
    )
    return CampaignEngine(
        cache=cache,
        campaign_seed=spec.engine.seed,
        method=spec.engine.method,
        fault_plan=fault_plan,
        max_retries=spec.engine.max_retries,
    )


def run_campaign(spec: CampaignSpec, fault_plan=None, progress=None):
    """Run one campaign spec; returns ``(CampaignData, CampaignEngine)``."""
    from repro.experiments.datasets import build_campaign

    device = build_device(spec)
    engine = build_engine(spec, fault_plan=fault_plan)
    campaign = build_campaign(
        device,
        spec.app_kind,
        spec.app_params,
        freq_count=spec.sweep.freq_count,
        freqs_mhz=spec.sweep.freqs_mhz,
        mem_freqs_mhz=spec.sweep.mem_freqs_mhz,
        repetitions=spec.sweep.repetitions,
        engine=engine,
        progress=progress,
    )
    return campaign, engine


def measured_tradeoff(result) -> TradeoffPrediction:
    """The measured profile of one characterization, as a trade-off object.

    Lets an objective run directly on campaign ground truth when a
    scenario names no model. Auto-governed devices report no baseline
    clock; the field is carried as ``0.0`` (objectives never read it).
    """
    return TradeoffPrediction(
        freqs_mhz=np.asarray(result.freqs_mhz, dtype=float),
        times_s=np.asarray(result.times_s, dtype=float),
        energies_j=np.asarray(result.energies_j, dtype=float),
        speedups=np.asarray(result.speedups(), dtype=float),
        normalized_energies=np.asarray(result.normalized_energies(), dtype=float),
        baseline_freq_mhz=(
            0.0 if result.baseline_freq_mhz is None else float(result.baseline_freq_mhz)
        ),
    )


@dataclass(frozen=True)
class AdviceRow:
    """Objective outcome for one swept input."""

    label: str
    features: Tuple[float, ...]
    advice: Optional[Any] = None
    #: Set (instead of ``advice``) when the objective was infeasible for
    #: this input, e.g. no configuration met the deadline.
    error: Optional[str] = None


@dataclass
class ScenarioOutcome:
    """Everything one ``repro run`` produced."""

    scenario: ScenarioSpec
    campaign: Any
    engine: Any
    advice: List[AdviceRow] = field(default_factory=list)


def _resolve_model(ref: ObjectiveRef, base_dir: Optional[str]):
    from repro.serving.registry import ModelRegistry

    registry = ModelRegistry(resolve_ref(ref.model_registry, base_dir))
    model, _manifest = registry.resolve(ref.model_name, ref.model_version)
    return model


def _evaluate_objective(
    scenario: ScenarioSpec, campaign
) -> List[AdviceRow]:
    from repro.errors import ServingError

    ref = scenario.objective
    assert ref is not None
    objective = ref.to_objective()
    model = None
    if ref.model_registry is not None:
        model = _resolve_model(ref, scenario.base_dir)

    def profile_for(features, result):
        if model is not None:
            return model.predict_tradeoff(list(features), result.freqs_mhz)
        return measured_tradeoff(result)

    # A 2-D campaign keys each characterization by the domain features
    # plus the memory clock: one input's per-clock rows stack into one
    # grid profile, searched for the best (f_core, f_mem) pair.
    grid = bool(getattr(campaign, "mem_freqs_mhz", None))
    inputs: Dict[Tuple[float, ...], List[Tuple[float, ...]]] = {}
    for features in sorted(campaign.characterizations):
        inputs.setdefault(features[:-1] if grid else features, []).append(features)
    rows: List[AdviceRow] = []
    for domain_features, keys in inputs.items():
        results = [campaign.characterizations[k] for k in keys]
        if grid:
            profile = stack_memory_rows(
                (k[-1], profile_for(k, r)) for k, r in zip(keys, results)
            )
        else:
            profile = profile_for(keys[0], results[0])
        label = results[0].app_name
        try:
            advice = objective.evaluate(profile)
        except ServingError as exc:
            rows.append(AdviceRow(label, domain_features, error=str(exc)))
        else:
            rows.append(AdviceRow(label, domain_features, advice=advice))
    return rows


def run_scenario(scenario: ScenarioSpec, progress=None) -> ScenarioOutcome:
    """Execute one scenario end to end: campaign (+ faults) + objective.

    Dataset output (``outputs.dataset``) is resolved relative to the
    scenario file and written here; objective evaluation happens after
    the campaign so an infeasible objective still leaves the campaign's
    dataset on disk.
    """
    campaign, engine = run_campaign(
        scenario.campaign, fault_plan=scenario.fault_plan, progress=progress
    )
    outcome = ScenarioOutcome(scenario=scenario, campaign=campaign, engine=engine)
    if scenario.dataset_output is not None:
        from repro.io import save_dataset

        path = resolve_ref(scenario.dataset_output, scenario.base_dir)
        save_dataset(campaign.dataset, path)
    if scenario.objective is not None:
        try:
            outcome.advice = _evaluate_objective(scenario, campaign)
        except ReproError as exc:
            raise SpecError(
                f"scenario {scenario.name!r}: objective evaluation failed: {exc}"
            ) from exc
    return outcome
