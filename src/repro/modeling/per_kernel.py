"""Per-kernel domain-specific models (paper §7, second half).

The paper's final future-work item: *"using SYnergy's support for
per-kernel frequency scaling, we can use the domain-specific model to
select a different frequency configuration for each kernel of the
application by focusing on each kernel's input rather than the input for
the entire program."*

This module implements that pipeline end to end:

1. each kernel of an application is characterized *in isolation* across
   the frequency sweep, for several input sizes (its thread count and
   per-thread work are the kernel-level input features);
2. one :class:`repro.modeling.domain.DomainSpecificModel` is trained per
   kernel, keyed by its name;
3. for a concrete launch mix, each kernel's model predicts its
   speedup/energy profile and a tuning metric picks its clock —
   producing the per-kernel plan that
   :class:`repro.synergy.tuning.PerKernelDVFS` executes.

Unlike :func:`repro.synergy.tuning.plan_per_kernel_frequencies` (which
reads the simulator's analytic models directly — an oracle), this path
only ever sees *measurements*, exactly as a deployment would.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ModelNotFittedError
from repro.kernels.ir import KernelLaunch
from repro.ml.base import Regressor
from repro.modeling.dataset import EnergyDataset
from repro.modeling.domain import DomainSpecificModel, default_regressor_factory
from repro.synergy.api import SynergyDevice
from repro.synergy.runner import characterize
from repro.synergy.tuning import TuningDecision, TuningMetric, select_frequency

__all__ = ["KernelWorkload", "PER_KERNEL_FEATURE_NAMES", "PerKernelModelSuite"]

#: Kernel-level input features: launched threads and per-thread work
#: multiplier (together they determine occupancy and per-thread chain
#: length — the quantities DVFS behaviour actually depends on).
PER_KERNEL_FEATURE_NAMES: Tuple[str, str] = ("f_threads", "f_work_iterations")


class KernelWorkload:
    """One kernel type, repeated enough times to be measurable."""

    def __init__(self, launch: KernelLaunch, repeats: int = 40) -> None:
        if repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        self._launch = launch
        self._repeats = repeats
        self.name = f"kernel-{launch.spec.name}"

    def run(self, gpu) -> None:
        for _ in range(self._repeats):
            gpu.launch(self._launch)


def _features_of(launch: KernelLaunch) -> Tuple[float, float]:
    return (float(launch.threads), float(launch.work_iterations))


class PerKernelModelSuite:
    """Trains and serves one domain-specific model per kernel type.

    Parameters
    ----------
    regressor_factory:
        Regressor builder for every sub-model.
    baseline_freq_mhz:
        Clock the predictions are normalized against (V100 default).
    """

    def __init__(
        self,
        regressor_factory: Callable[[], Regressor] = default_regressor_factory,
        baseline_freq_mhz: float = 1282.0,
    ) -> None:
        self.regressor_factory = regressor_factory
        self.baseline_freq_mhz = float(baseline_freq_mhz)
        self._models: Dict[str, DomainSpecificModel] = {}
        self._datasets: Dict[str, EnergyDataset] = {}

    # -- training ------------------------------------------------------
    def characterize_and_fit(
        self,
        device: SynergyDevice,
        launches: Iterable[KernelLaunch],
        freqs_mhz: Sequence[float],
        size_scales: Sequence[float] = (0.25, 1.0, 4.0),
        repetitions: int = 3,
        kernel_repeats: int = 40,
    ) -> "PerKernelModelSuite":
        """Characterize every distinct kernel at several input scales.

        For each distinct kernel in ``launches``, the thread count is
        scaled by each entry of ``size_scales`` (the kernel-level input
        sweep) and the kernel is swept over ``freqs_mhz``; one
        domain-specific model is then fitted per kernel.
        """
        freqs = sorted(set(float(f) for f in freqs_mhz))
        if self.baseline_freq_mhz not in freqs:
            freqs = sorted(freqs + [self.baseline_freq_mhz])
        seen: Dict[str, KernelLaunch] = {}
        for launch in launches:
            seen.setdefault(launch.spec.name, launch)
        if not seen:
            raise ConfigurationError("no launches supplied")

        for name, launch in seen.items():
            dataset = EnergyDataset(feature_names=PER_KERNEL_FEATURE_NAMES)
            for scale in size_scales:
                threads = max(1, int(round(launch.threads * float(scale))))
                variant = launch.with_threads(threads)
                workload = KernelWorkload(variant, repeats=kernel_repeats)
                result = characterize(
                    workload, device, freqs_mhz=freqs, repetitions=repetitions
                )
                dataset.add_characterization(_features_of(variant), result)
            model = DomainSpecificModel(
                PER_KERNEL_FEATURE_NAMES,
                self.regressor_factory,
                baseline_freq_mhz=self.baseline_freq_mhz,
            ).fit(dataset)
            self._models[name] = model
            self._datasets[name] = dataset
        return self

    # -- inference -------------------------------------------------------
    @property
    def kernel_names(self) -> List[str]:
        """Kernels with a trained model."""
        return sorted(self._models)

    def model_for(self, kernel_name: str) -> DomainSpecificModel:
        """The trained model of one kernel."""
        if kernel_name not in self._models:
            raise ModelNotFittedError(f"no model for kernel {kernel_name!r}")
        return self._models[kernel_name]

    def predict_plan(
        self,
        launches: Iterable[KernelLaunch],
        freqs_mhz: Sequence[float],
        metric: TuningMetric = TuningMetric.MIN_ENERGY,
        max_speedup_loss: float = 0.05,
    ) -> Dict[str, TuningDecision]:
        """Model-predicted per-kernel frequency plan for a launch mix."""
        freqs = np.asarray(sorted(set(float(f) for f in freqs_mhz)))
        plan: Dict[str, TuningDecision] = {}
        for launch in launches:
            name = launch.spec.name
            if name in plan:
                continue
            model = self.model_for(name)
            pred = model.predict_tradeoff(_features_of(launch), freqs)
            plan[name] = select_frequency(
                freqs,
                pred.speedups,
                pred.normalized_energies,
                metric=metric,
                max_speedup_loss=max_speedup_loss,
            )
        return plan
