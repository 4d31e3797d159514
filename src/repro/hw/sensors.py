"""Simulated on-board power/energy sensors.

Real GPU energy counters (NVML, ROCm-SMI) are noisy: they sample power at
a finite rate, quantize the reading, and drift a little run to run. The
paper mitigates this by repeating every experiment five times. The
:class:`EnergySensor` reproduces those effects so the modeling pipeline is
trained on realistically imperfect measurements, and so that the
five-repetition protocol in :mod:`repro.synergy` is actually load-bearing.

Noise model per reading::

    measured = true * (1 + eps_prop) + eps_add,  eps_prop ~ N(0, rel_noise)
    measured -> round to `quantum_j` resolution
"""

from __future__ import annotations

from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_in_range, check_positive

__all__ = ["EnergySensor", "TimeSensor"]


class EnergySensor:
    """Adds multiplicative + additive noise and quantization to energy readings.

    Parameters
    ----------
    rel_noise:
        Standard deviation of the multiplicative error (e.g. ``0.01`` for
        1% run-to-run spread). ``0`` gives an ideal sensor.
    add_noise_j:
        Standard deviation of the additive error in joules.
    quantum_j:
        Counter resolution in joules (NVML's total-energy counter counts
        millijoules; board-level meters are far coarser).
    seed:
        RNG seed or generator for reproducible noise streams.
    """

    def __init__(
        self,
        rel_noise: float = 0.01,
        add_noise_j: float = 0.0,
        quantum_j: float = 1e-3,
        seed: RandomState = None,
    ) -> None:
        self.rel_noise = check_in_range(rel_noise, "rel_noise", 0.0, 0.5)
        if add_noise_j < 0:
            raise ValueError("add_noise_j must be >= 0")
        self.add_noise_j = float(add_noise_j)
        self.quantum_j = check_positive(quantum_j, "quantum_j")
        self._rng = as_generator(seed)

    def read(self, true_energy_j: float) -> float:
        """One noisy, quantized reading of ``true_energy_j``."""
        if true_energy_j < 0:
            raise ValueError("true_energy_j must be >= 0")
        value = float(true_energy_j)
        if self.rel_noise > 0:
            value *= 1.0 + self._rng.normal(0.0, self.rel_noise)
        if self.add_noise_j > 0:
            value += self._rng.normal(0.0, self.add_noise_j)
        value = max(value, 0.0)
        return round(value / self.quantum_j) * self.quantum_j


class TimeSensor:
    """Adds jitter to wall-clock time measurements.

    Host-side timing (the paper uses ``std::chrono``) sees scheduler jitter
    roughly proportional to the measured interval plus a small fixed cost.
    """

    def __init__(
        self,
        rel_noise: float = 0.005,
        add_noise_s: float = 2e-6,
        seed: RandomState = None,
    ) -> None:
        self.rel_noise = check_in_range(rel_noise, "rel_noise", 0.0, 0.5)
        if add_noise_s < 0:
            raise ValueError("add_noise_s must be >= 0")
        self.add_noise_s = float(add_noise_s)
        self._rng = as_generator(seed)

    def read(self, true_time_s: float) -> float:
        """One noisy reading of ``true_time_s``; never less than a microsecond."""
        if true_time_s < 0:
            raise ValueError("true_time_s must be >= 0")
        value = float(true_time_s)
        if self.rel_noise > 0:
            value *= 1.0 + self._rng.normal(0.0, self.rel_noise)
        if self.add_noise_s > 0:
            value += abs(self._rng.normal(0.0, self.add_noise_s))
        return max(value, 1e-6)
