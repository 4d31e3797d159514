"""Dataset builders: run the paper's characterization campaigns.

:func:`build_campaign` sweeps one workload kind of the catalog
(:mod:`repro.experiments.workloads`) over a frequency subsample on one
device, returning both the flat
:class:`repro.modeling.dataset.EnergyDataset` (for model training) and
the per-input :class:`repro.synergy.runner.CharacterizationResult`
objects (the measured ground truth used for validation). The
per-application ``build_*_campaign`` functions are keyword spellings of
it.

Builders accept an optional :class:`repro.runtime.engine.CampaignEngine`
that runs the (input x frequency) grid with per-task seeds and
persistent result caching; without one they fall back to the serial
in-process sweep on the caller's device handle (preserving the exact
sensor-noise stream of historical runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SpecError
from repro.experiments import configs
from repro.experiments.workloads import workload_kind
from repro.modeling.dataset import EnergyDataset
from repro.runtime.engine import CampaignEngine, CampaignStats, ProgressFn
from repro.synergy.api import SynergyDevice
from repro.synergy.runner import Application, CharacterizationResult, characterize

__all__ = [
    "CampaignData",
    "MEM_FEATURE_NAME",
    "build_campaign",
    "build_cronos_campaign",
    "build_ligen_campaign",
    "characterize_apps",
    "default_training_freqs",
    "resolve_training_freqs",
    "training_baseline_mhz",
]

#: Feature-column name appended to a workload's domain features when a
#: campaign sweeps the memory-frequency axis too.
MEM_FEATURE_NAME = "f_mem_mhz"

FeatureKey = Tuple[float, ...]


@dataclass
class CampaignData:
    """Everything a modeling experiment needs from one campaign."""

    dataset: EnergyDataset
    characterizations: Dict[FeatureKey, CharacterizationResult]
    freqs_mhz: List[float]
    #: Engine-lifetime task/cache counters when an engine ran the
    #: campaign (``None`` for the serial in-process path).
    stats: Optional[CampaignStats] = field(default=None, compare=False)
    #: Memory clocks of a 2-D (core x mem) sweep; ``None`` for the
    #: classic core-only campaigns. When set, the dataset's last feature
    #: column is :data:`MEM_FEATURE_NAME` and ``characterizations`` is
    #: keyed by ``domain_features + (mem_freq_mhz,)``.
    mem_freqs_mhz: Optional[List[float]] = None

    def characterization_for(self, features: Sequence[float]) -> CharacterizationResult:
        """Measured sweep for one input-feature tuple."""
        return self.characterizations[tuple(float(f) for f in features)]


def default_training_freqs(device: SynergyDevice, count: Optional[int]) -> List[float]:
    """Frequency subsample for training sweeps.

    Always includes the device's default clock
    (:attr:`~repro.hw.specs.DeviceSpec.default_clock_mhz`): the domain-specific
    model normalizes its predictions by the predicted values *at the
    baseline frequency* (§4.2.3), so the baseline bin must be in the
    training set or every normalized prediction inherits a systematic
    interpolation offset.

    Membership of the baseline bin is decided by snapping to the device
    table and comparing within half a bin — never by float identity — so
    the baseline can neither be silently dropped (a recomputed table
    value differing in the last ulp) nor duplicated (two near-identical
    floats that later snap onto the same bin and abort the sweep).
    """
    table = device.gpu.spec.core_freqs
    if count is None:
        return [float(f) for f in table.freqs_mhz]
    freqs = [float(table.snap(f)) for f in table.subsample(count)]
    default = device.gpu.spec.default_clock_mhz
    if default is not None:
        default = float(table.snap(default))
        tol = max(table.step_mhz() / 2.0, 1e-9)
        if not any(abs(f - default) <= tol for f in freqs):
            freqs.append(default)
    return sorted(set(freqs))


def resolve_training_freqs(
    device: SynergyDevice,
    freq_count: Optional[int],
    freqs_mhz: Optional[Sequence[float]] = None,
) -> List[float]:
    """Resolve a sweep's frequency list: explicit points or a subsample.

    An explicit ``freqs_mhz`` list (e.g. from a campaign spec's
    ``sweep.freqs_mhz``) wins over ``freq_count``; each point is snapped
    onto the device's frequency table so requested clocks that fall
    between bins measure at a real operating point. Two requested points
    that snap onto the same bin are an error — the sweep the caller
    described is not the sweep that would run.
    """
    if freqs_mhz is None:
        return default_training_freqs(device, freq_count)
    if freq_count is not None:
        raise ValueError("freq_count and freqs_mhz are mutually exclusive")
    if not freqs_mhz:
        raise ValueError("freqs_mhz must name at least one frequency")
    table = device.gpu.spec.core_freqs
    snapped = [float(table.snap(f)) for f in freqs_mhz]
    if len(set(snapped)) != len(snapped):
        raise ValueError(
            "freqs_mhz contains points that snap onto the same device "
            f"frequency bin: requested {sorted(float(f) for f in freqs_mhz)}, "
            f"snapped {sorted(snapped)}"
        )
    return sorted(snapped)


def training_baseline_mhz(device: SynergyDevice, freqs_mhz: Sequence[float]) -> float:
    """The clock a domain model trained on ``freqs_mhz`` normalizes against.

    The device's default clock, snapped onto its frequency table (the
    bin :func:`default_training_freqs` always sweeps); auto-governed
    devices use the top training bin, even when their table declares a
    default clock.
    """
    spec = device.gpu.spec
    if spec.default_clock_mhz is not None:
        return float(spec.core_freqs.snap(spec.default_clock_mhz))
    return float(max(freqs_mhz))


def characterize_apps(
    device: SynergyDevice,
    apps: Sequence[Application],
    feature_names: Sequence[str],
    freqs_mhz: List[float],
    *,
    mem_freqs_mhz: Optional[Sequence[float]] = None,
    repetitions: int = configs.DEFAULT_REPETITIONS,
    engine: Optional[CampaignEngine] = None,
    progress: Optional[ProgressFn] = None,
) -> CampaignData:
    """Sweep ``apps`` over the resolved ``freqs_mhz``; assemble the campaign.

    A core-only sweep is the single ``[None]`` memory column of the 2-D
    ``(f_core, f_mem)`` sweep, so one loop builds the dataset and the
    characterization keys; 2-D rows key on ``domain_features +
    (mem_freq_mhz,)`` under a trailing :data:`MEM_FEATURE_NAME` column.
    Without an engine a core-only sweep runs serially on ``device``
    (keeping its sensor-noise stream) and a 2-D one on a fresh serial
    engine; an engine measures with its own ``method``. An app whose
    baseline was quarantined is dropped; ``stats`` says so.
    """
    if mem_freqs_mhz is None:
        if engine is None:
            results = [
                characterize(app, device, freqs_mhz=freqs_mhz, repetitions=repetitions)
                for app in apps
            ]
        else:
            results = engine.characterize_many(
                apps, device.gpu.spec, freqs_mhz=freqs_mhz, repetitions=repetitions,
                progress=progress,
            )
        grid = [None if result is None else [result] for result in results]
    else:
        engine = engine if engine is not None else CampaignEngine()
        grid = engine.characterize_grid(
            apps, device.gpu.spec, freqs_mhz=freqs_mhz, mem_freqs_mhz=mem_freqs_mhz,
            repetitions=repetitions, progress=progress,
        )
        feature_names = tuple(feature_names) + (MEM_FEATURE_NAME,)

    dataset = EnergyDataset(feature_names=tuple(feature_names))
    chars: Dict[FeatureKey, CharacterizationResult] = {}
    for app, rows in zip(apps, grid):
        for row in rows or ():
            features = app.domain_features
            if row.mem_freq_mhz is not None:
                features += (float(row.mem_freq_mhz),)
            dataset.add_characterization(features, row)
            chars[features] = row
    return CampaignData(
        dataset=dataset,
        characterizations=chars,
        freqs_mhz=freqs_mhz,
        stats=None if engine is None else engine.stats,
        mem_freqs_mhz=None if mem_freqs_mhz is None else sorted({key[-1] for key in chars}),
    )


def build_campaign(
    device: SynergyDevice,
    kind: str,
    params: Optional[Mapping[str, Any]] = None,
    *,
    freq_count: Optional[int] = configs.DEFAULT_TRAIN_FREQ_COUNT,
    freqs_mhz: Optional[Sequence[float]] = None,
    mem_freqs_mhz: Optional[Sequence[float]] = None,
    repetitions: int = configs.DEFAULT_REPETITIONS,
    engine: Optional[CampaignEngine] = None,
    progress: Optional[ProgressFn] = None,
) -> CampaignData:
    """Characterize one catalog workload kind (paper §5.1 protocol).

    ``params`` are the kind's spec-style params (``None``: the paper
    grid). The sweep is ``freqs_mhz`` snapped onto the device table,
    else a ``freq_count``-point subsample that keeps the baseline bin.
    ``mem_freqs_mhz`` (e.g. ``device.gpu.supported_memory_frequencies()``)
    makes it the 2-D ``(f_core, f_mem)`` grid, for kinds with a memory
    axis only; points at the reference memory clock keep the task
    identities of a core-only campaign, so both share caches and noise.
    """
    workload = workload_kind(kind)
    if mem_freqs_mhz is not None and not workload.memory_axis:
        raise SpecError(
            "sweep.mem_freqs_mhz (2-D DVFS) is only wired up for the 'mhd' "
            f"application, not {kind!r}"
        )
    return characterize_apps(
        device,
        workload.apps(params),
        workload.feature_names,
        resolve_training_freqs(device, freq_count, freqs_mhz),
        mem_freqs_mhz=mem_freqs_mhz,
        repetitions=repetitions,
        engine=engine,
        progress=progress,
    )


def build_cronos_campaign(
    device: SynergyDevice,
    grids: Sequence[Tuple[int, int, int]] = configs.CRONOS_GRID_SIZES,
    freq_count: Optional[int] = configs.DEFAULT_TRAIN_FREQ_COUNT,
    n_steps: int = configs.CRONOS_STEPS,
    repetitions: int = configs.DEFAULT_REPETITIONS,
    engine: Optional[CampaignEngine] = None,
    progress: Optional[ProgressFn] = None,
    freqs_mhz: Optional[Sequence[float]] = None,
) -> CampaignData:
    """Characterize Cronos over the grid sweep (paper §5.1 protocol)."""
    return build_campaign(
        device, "cronos", dict(grids=grids, steps=n_steps), freq_count=freq_count,
        freqs_mhz=freqs_mhz, repetitions=repetitions, engine=engine, progress=progress,
    )


def build_ligen_campaign(
    device: SynergyDevice,
    ligand_counts: Sequence[int] = configs.LIGEN_LIGAND_COUNTS,
    atom_counts: Sequence[int] = configs.LIGEN_ATOM_COUNTS,
    fragment_counts: Sequence[int] = configs.LIGEN_FRAGMENT_COUNTS,
    freq_count: Optional[int] = configs.DEFAULT_TRAIN_FREQ_COUNT,
    repetitions: int = configs.DEFAULT_REPETITIONS,
    engine: Optional[CampaignEngine] = None,
    progress: Optional[ProgressFn] = None,
    freqs_mhz: Optional[Sequence[float]] = None,
) -> CampaignData:
    """Characterize LiGen over the full ``(l, a, f)`` input grid."""
    params = dict(
        ligand_counts=ligand_counts, atom_counts=atom_counts, fragment_counts=fragment_counts
    )
    return build_campaign(
        device, "ligen", params, freq_count=freq_count, freqs_mhz=freqs_mhz,
        repetitions=repetitions, engine=engine, progress=progress,
    )
