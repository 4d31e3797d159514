"""Frequency tuning: turning predictions into clock decisions.

The paper's future work (§7) is to plug the domain-specific models into
the SYnergy compilation toolchain: use an *energy-target metric* to pick
one frequency for the whole application, and — using SYnergy's per-kernel
frequency scaling — a different clock for every kernel. This module
implements both layers:

- :func:`select_frequency` — pick the best frequency from any predicted
  (or measured) speedup / normalized-energy profile under a tuning
  metric: minimum energy under a slowdown budget, minimum EDP/ED2P, or
  maximum speedup under an energy budget;
- :func:`plan_per_kernel_frequencies` — build a per-kernel frequency
  plan for a launch mix (memory-bound kernels get parked low,
  compute-bound kernels keep their clocks);
- :class:`PerKernelDVFS` — a device wrapper that applies such a plan,
  switching the clock before every launch like SYnergy's per-kernel
  scaling runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.device import LaunchResult, SimulatedGPU
from repro.hw.perf import RooflineTimingModel
from repro.hw.power import PowerModel
from repro.kernels.ir import KernelLaunch
from repro.utils.validation import check_in_range, ensure_1d

__all__ = [
    "TuningMetric",
    "TuningDecision",
    "select_frequency",
    "plan_per_kernel_frequencies",
    "PerKernelDVFS",
]


class TuningMetric(Enum):
    """Objective used when selecting a frequency configuration."""

    MIN_ENERGY = "min_energy"
    MIN_EDP = "min_edp"
    MIN_ED2P = "min_ed2p"
    MAX_SPEEDUP = "max_speedup"
    ENERGY_TARGET = "energy_target"


@dataclass(frozen=True)
class TuningDecision:
    """Outcome of a frequency selection."""

    freq_mhz: float
    predicted_speedup: float
    predicted_normalized_energy: float
    metric: TuningMetric

    @property
    def predicted_edp(self) -> float:
        """Normalized energy-delay product (baseline == 1)."""
        return self.predicted_normalized_energy / self.predicted_speedup


def select_frequency(
    freqs_mhz,
    speedups,
    normalized_energies,
    metric: TuningMetric = TuningMetric.MIN_ENERGY,
    max_speedup_loss: float = 0.10,
    max_normalized_energy: Optional[float] = None,
    energy_target: Optional[float] = None,
) -> TuningDecision:
    """Pick the best frequency from a trade-off profile.

    Parameters
    ----------
    freqs_mhz, speedups, normalized_energies:
        Parallel arrays describing the profile (typically a
        :class:`repro.modeling.domain.TradeoffPrediction`).
    metric:
        The objective. ``MIN_ENERGY`` minimizes normalized energy subject
        to the slowdown budget; ``MIN_EDP`` / ``MIN_ED2P`` minimize
        ``E t`` / ``E t^2`` (scale-free: ``ne / sp`` and ``ne / sp^2``);
        ``MAX_SPEEDUP`` maximizes speedup subject to the energy budget;
        ``ENERGY_TARGET`` is SYnergy's energy-target metric (paper §7):
        the fastest configuration whose predicted normalized energy does
        not exceed ``energy_target``.
    max_speedup_loss:
        Slowdown budget as a fraction (0.10 = tolerate 10% slowdown).
        Applied by ``MIN_ENERGY`` only.
    max_normalized_energy:
        Energy budget for ``MAX_SPEEDUP`` (default: no budget).
    energy_target:
        Required for ``ENERGY_TARGET``: the normalized-energy ceiling
        (e.g. 0.85 = "spend at most 85% of the baseline energy").
    """
    freqs = ensure_1d(freqs_mhz, "freqs_mhz")
    sp = ensure_1d(speedups, "speedups")
    ne = ensure_1d(normalized_energies, "normalized_energies")
    if not (freqs.size == sp.size == ne.size):
        raise ConfigurationError("profile arrays must have equal length")
    if freqs.size == 0:
        raise ConfigurationError("empty profile")
    check_in_range(max_speedup_loss, "max_speedup_loss", 0.0, 1.0)

    if metric is TuningMetric.MIN_ENERGY:
        mask = sp >= (1.0 - max_speedup_loss)
        if not mask.any():
            raise ConfigurationError(
                f"no configuration within the {max_speedup_loss:.0%} slowdown budget"
            )
        candidates = np.flatnonzero(mask)
        idx = candidates[int(np.argmin(ne[mask]))]
    elif metric is TuningMetric.MIN_EDP:
        idx = int(np.argmin(ne / sp))
    elif metric is TuningMetric.MIN_ED2P:
        idx = int(np.argmin(ne / sp**2))
    elif metric is TuningMetric.MAX_SPEEDUP:
        if max_normalized_energy is not None:
            mask = ne <= max_normalized_energy
            if not mask.any():
                raise ConfigurationError(
                    f"no configuration within the energy budget {max_normalized_energy}"
                )
            candidates = np.flatnonzero(mask)
            idx = candidates[int(np.argmax(sp[mask]))]
        else:
            idx = int(np.argmax(sp))
    elif metric is TuningMetric.ENERGY_TARGET:
        if energy_target is None:
            raise ConfigurationError("ENERGY_TARGET requires energy_target")
        mask = ne <= float(energy_target)
        if not mask.any():
            raise ConfigurationError(
                f"no configuration reaches the energy target {energy_target}"
            )
        candidates = np.flatnonzero(mask)
        idx = candidates[int(np.argmax(sp[mask]))]
    else:  # pragma: no cover - exhaustive enum
        raise ConfigurationError(f"unknown metric {metric}")

    return TuningDecision(
        freq_mhz=float(freqs[idx]),
        predicted_speedup=float(sp[idx]),
        predicted_normalized_energy=float(ne[idx]),
        metric=metric,
    )


def _kernel_profile(
    launch: KernelLaunch,
    timing: RooflineTimingModel,
    power: PowerModel,
    freqs: np.ndarray,
    baseline_mhz: float,
    active_idle_frac: float,
):
    times = np.empty(freqs.size)
    energies = np.empty(freqs.size)
    for i, f in enumerate(freqs):
        t = timing.time(launch, float(f))
        times[i] = t.time_s
        energies[i] = power.energy_j(
            float(f), t.effective_u_comp(active_idle_frac), t.u_mem, t.exec_s, idle_s=t.overhead_s
        )
    base_idx = int(np.argmin(np.abs(freqs - baseline_mhz)))
    return times[base_idx] / times, energies / energies[base_idx]


def plan_per_kernel_frequencies(
    launches: Iterable[KernelLaunch],
    gpu: SimulatedGPU,
    metric: TuningMetric = TuningMetric.MIN_ENERGY,
    max_speedup_loss: float = 0.05,
    freq_count: int = 24,
) -> Dict[str, TuningDecision]:
    """Choose one clock per distinct kernel in a launch mix (paper §7).

    Each kernel's speedup/energy profile is evaluated over a frequency
    subsample (relative to the device baseline) and the metric picks its
    clock. Memory-bound kernels end up parked low while compute-bound
    kernels keep their frequency — the per-kernel savings the paper
    anticipates from SYnergy integration.
    """
    spec = gpu.spec
    baseline = (
        spec.default_clock_mhz
        if spec.default_clock_mhz is not None
        else gpu.governor.baseline_mhz()  # type: ignore[union-attr]
    )
    freqs = np.asarray(spec.core_freqs.subsample(freq_count))
    if not np.any(np.abs(freqs - baseline) < 1e-6):
        freqs = np.sort(np.append(freqs, baseline))
    timing = gpu.timing_model
    power = gpu.power_model

    plan: Dict[str, TuningDecision] = {}
    for launch in launches:
        name = launch.spec.name
        if name in plan:
            continue
        speedups, energies = _kernel_profile(
            launch, timing, power, freqs, baseline, spec.active_idle_frac
        )
        plan[name] = select_frequency(
            freqs, speedups, energies, metric=metric, max_speedup_loss=max_speedup_loss
        )
    return plan


class PerKernelDVFS:
    """Device wrapper applying a per-kernel frequency plan on launch.

    Mirrors SYnergy's per-kernel frequency scaling runtime: before every
    launch the core clock is switched to the plan's entry for that kernel
    (or the fallback for unplanned kernels).
    """

    def __init__(
        self,
        gpu: SimulatedGPU,
        plan: Mapping[str, TuningDecision],
        fallback_mhz: Optional[float] = None,
    ) -> None:
        if not plan:
            raise ConfigurationError("frequency plan is empty")
        self.gpu = gpu
        self.plan = dict(plan)
        if fallback_mhz is None:
            fallback_mhz = (
                gpu.spec.default_clock_mhz
                if gpu.spec.default_clock_mhz is not None
                else gpu.spec.core_freqs.max_mhz
            )
        self.fallback_mhz = gpu.spec.core_freqs.snap(fallback_mhz)
        self.switch_count = 0

    def launch(self, launch: KernelLaunch) -> LaunchResult:
        """Switch the clock for this kernel, then launch."""
        decision = self.plan.get(launch.spec.name)
        target = decision.freq_mhz if decision is not None else self.fallback_mhz
        if self.gpu.pinned_frequency_mhz != target:
            self.gpu.set_core_frequency(target)
            self.switch_count += 1
        return self.gpu.launch(launch)

    def launch_many(self, launches: Iterable[KernelLaunch]) -> List[LaunchResult]:
        """Launch a sequence under the plan."""
        return [self.launch(l) for l in launches]

    # -- counter passthrough (quacks like a SimulatedGPU for profiling) ----
    @property
    def time_counter_s(self) -> float:
        """Underlying device time counter."""
        return self.gpu.time_counter_s

    @property
    def energy_counter_j(self) -> float:
        """Underlying device energy counter."""
        return self.gpu.energy_counter_j
