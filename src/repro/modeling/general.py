"""The general-purpose energy model (Fan et al. style, paper §4.1).

Training phase: the 106 micro-benchmarks are executed on the target
device at every frequency configuration; each contributes samples
``(static_features, c, speedup, normalized_energy)`` where the static
features are the normalized Table-1 operation mix. Two regressors are
fitted — one for speedup, one for normalized energy.

Prediction phase: a *new application* is represented only by the static
feature vector of its kernel code (no execution, no input information —
that is the model's designed strength and, as the paper shows, its
accuracy limit: two workload sizes of the same application share one
static vector and therefore one prediction).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import ModelNotFittedError
from repro.kernels.features import extract_normalized_features
from repro.kernels.ir import KernelSpec
from repro.kernels.microbench import MicroBenchmark, generate_microbenchmarks
from repro.ml.base import Regressor
from repro.modeling.domain import TradeoffPrediction, default_regressor_factory
from repro.synergy.api import SynergyDevice
from repro.synergy.runner import DEFAULT_REPETITIONS, characterize
from repro.utils.validation import check_positive_int, ensure_1d

__all__ = ["GeneralPurposeModel", "cronos_static_spec", "ligen_static_spec"]


def cronos_static_spec() -> KernelSpec:
    """*Source-level* static feature estimate of the Cronos kernels.

    This is what a static analyzer extracts from the kernel code — which
    is systematically different from the dynamically executed mix in
    :mod:`repro.cronos.gpu_costs`: the stencil source names each
    neighbour value once and reuses it across the three directional
    sweeps, so a static reference count sees far fewer distinct global
    accesses than the memory system performs (under-count ~2x), while the
    flux/limiter arithmetic appears on both sides of every branch
    (over-count). The net compute-leaning bias makes the general-purpose
    model mistake the stencil for an arithmetic-bound kernel — the same
    systematic gap Fan et al. report for memory-bound applications
    (paper §4.1: "static code features have more weight on computing
    ability", hurting memory-bound accuracy).
    """
    return KernelSpec(
        name="cronos_app_static",
        int_add=110.0,
        int_mul=40.0,
        int_bw=6.0,
        float_add=620.0,
        float_mul=520.0,
        float_div=44.0,
        special_fn=12.0,
        global_access=34.0,
        local_access=20.0,
    )


def ligen_static_spec() -> KernelSpec:
    """*Source-level* static feature estimate of the LiGen kernels.

    Static analysis cannot see the dynamic trip counts of the angle-
    sampling inner loop (under-counting the trig-heavy body) and counts
    every affinity-map lookup as a global access although the texture
    cache serves most of them (over-counting memory traffic) — the same
    systematic gaps Fan et al. describe for static GPU models.
    """
    return KernelSpec(
        name="ligen_app_static",
        int_add=85.0,
        int_mul=26.0,
        int_bw=4.0,
        float_add=170.0,
        float_mul=190.0,
        float_div=10.0,
        special_fn=9.0,
        global_access=13.0,
        local_access=10.0,
    )


class _MicrobenchWorkload:
    """Adapter: one micro-benchmark as a characterizable application.

    Micro-benchmarks repeat their kernel ``inner_loops`` times per run so
    even the smallest-occupancy variants accumulate enough energy to be
    resolvable by the (quantized) on-board counter — the same reason real
    micro-benchmark harnesses loop their kernels.
    """

    def __init__(self, mb: MicroBenchmark, inner_loops: int = 50) -> None:
        self._mb = mb
        self._inner_loops = inner_loops
        self.name = mb.name

    def run(self, gpu) -> None:
        for _ in range(self._inner_loops):
            gpu.launch(self._mb.launch)


class GeneralPurposeModel:
    """Static-feature speedup / normalized-energy predictor.

    Parameters
    ----------
    regressor_factory:
        Builder for the two regressors (default: the Random Forest the
        paper selects).
    repetitions:
        Measurement repetitions during training (paper protocol: 5).
    """

    def __init__(
        self,
        regressor_factory: Callable[[], Regressor] = default_regressor_factory,
        repetitions: int = DEFAULT_REPETITIONS,
    ) -> None:
        self.regressor_factory = regressor_factory
        self.repetitions = check_positive_int(repetitions, "repetitions")
        self._speedup_model: Optional[Regressor] = None
        self._energy_model: Optional[Regressor] = None
        self.n_training_runs_ = 0

    # -- training phase ----------------------------------------------------
    def train(
        self,
        device: SynergyDevice,
        freqs_mhz: Optional[Sequence[float]] = None,
        microbenchmarks: Optional[List[MicroBenchmark]] = None,
    ) -> "GeneralPurposeModel":
        """Profile the micro-benchmark suite and fit the two regressors."""
        suite = microbenchmarks if microbenchmarks is not None else generate_microbenchmarks()
        rows: List[np.ndarray] = []
        speedups: List[float] = []
        energies: List[float] = []
        for mb in suite:
            # Effective spec folds work-scaling multipliers into the
            # per-thread counts, so scaled variants are distinguishable.
            features = extract_normalized_features(mb.launch.effective_spec())
            result = characterize(
                _MicrobenchWorkload(mb),
                device,
                freqs_mhz=freqs_mhz,
                repetitions=self.repetitions,
            )
            sp = result.speedups()
            ne = result.normalized_energies()
            for freq, s, e in zip(result.freqs_mhz, sp, ne):
                rows.append(np.concatenate([features, [freq]]))
                speedups.append(float(s))
                energies.append(float(e))
        X = np.vstack(rows)
        self.n_training_runs_ = X.shape[0] * self.repetitions
        self._speedup_model = self.regressor_factory().fit(X, np.array(speedups))
        self._energy_model = self.regressor_factory().fit(X, np.array(energies))
        return self

    def _check_fitted(self) -> None:
        if self._speedup_model is None or self._energy_model is None:
            raise ModelNotFittedError("GeneralPurposeModel.train must be called first")

    def _design(self, spec: KernelSpec, freqs_mhz) -> np.ndarray:
        features = extract_normalized_features(spec)
        freqs = ensure_1d(freqs_mhz, "freqs_mhz")
        return np.column_stack([np.tile(features, (freqs.size, 1)), freqs])

    # -- prediction phase ----------------------------------------------------
    def predict_speedup(self, spec: KernelSpec, freqs_mhz) -> np.ndarray:
        """Predicted speedup (vs the device baseline) at each frequency."""
        self._check_fitted()
        return self._speedup_model.predict(self._design(spec, freqs_mhz))

    def predict_normalized_energy(self, spec: KernelSpec, freqs_mhz) -> np.ndarray:
        """Predicted normalized energy at each frequency."""
        self._check_fitted()
        return self._energy_model.predict(self._design(spec, freqs_mhz))

    def predict_tradeoff(
        self, spec: KernelSpec, freqs_mhz, baseline_freq_mhz: float
    ) -> TradeoffPrediction:
        """Trade-off profile from static features only.

        ``times_s`` / ``energies_j`` are *relative* units (reciprocal
        speedup and normalized energy): the static model never sees the
        application's absolute scale.
        """
        freqs = ensure_1d(freqs_mhz, "freqs_mhz")
        sp = np.maximum(self.predict_speedup(spec, freqs), 1e-9)
        ne = np.maximum(self.predict_normalized_energy(spec, freqs), 1e-9)
        return TradeoffPrediction(
            freqs_mhz=freqs,
            times_s=1.0 / sp,
            energies_j=ne,
            speedups=sp,
            normalized_energies=ne,
            baseline_freq_mhz=float(baseline_freq_mhz),
        )
