"""Characterization sweeps: run an application across core frequencies.

This is the experimental protocol of paper §5.1:

1. run the application at the baseline setting (NVIDIA: the default
   application clock; AMD: the automatic performance level);
2. for every core frequency in the sweep, pin the clock and run again;
3. repeat each measurement five times to damp sensor outliers;
4. report speedup and normalized energy relative to the baseline.

Applications plug in through the tiny :class:`Application` protocol: any
object with a ``name`` and a ``run(gpu)`` method that issues kernel
launches on a :class:`repro.hw.device.SimulatedGPU`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.device import SimulatedGPU
from repro.hw.dvfs import FrequencyTable
from repro.hw.specs import DeviceSpec
from repro.synergy.api import SynergyDevice
from repro.utils.validation import check_positive_int

__all__ = [
    "Application",
    "FrequencySample",
    "CharacterizationResult",
    "characterize",
    "check_method",
    "measure",
    "measure_point",
    "median",
    "resolve_sweep",
    "baseline_descriptor",
]

#: Paper protocol: every experiment is repeated five times (§5.1).
DEFAULT_REPETITIONS = 5


@runtime_checkable
class Application(Protocol):
    """Anything that can be executed on a simulated GPU."""

    name: str

    def run(self, gpu: SimulatedGPU) -> object:
        """Execute the application, issuing kernel launches on ``gpu``."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class FrequencySample:
    """Aggregated measurement at one core frequency.

    ``time_s``/``energy_j`` are medians over the repetitions; the raw
    per-repetition readings are kept for dispersion statistics. The
    repetition arrays are stored as read-only copies: samples are shared
    between campaign caches and every downstream consumer, so in-place
    mutation by one caller must not corrupt the others.
    """

    freq_mhz: float
    time_s: float
    energy_j: float
    rep_times_s: np.ndarray
    rep_energies_j: np.ndarray
    #: Pinned memory clock of this sweep point; None means the device's
    #: reference memory clock (every pre-v2 sample).
    mem_freq_mhz: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("rep_times_s", "rep_energies_j"):
            arr = np.array(getattr(self, name), dtype=float)  # always copies
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def power_w(self) -> float:
        """Average power as the ratio of the median energy to the median
        time (not the median of the per-repetition powers)."""
        return self.energy_j / self.time_s

    @property
    def time_spread(self) -> float:
        """Relative spread (max-min over median) of the time repetitions."""
        return float((self.rep_times_s.max() - self.rep_times_s.min()) / self.time_s)


@dataclass
class CharacterizationResult:
    """Full frequency sweep of one application on one device."""

    app_name: str
    device_name: str
    baseline_label: str
    baseline_freq_mhz: Optional[float]
    baseline_time_s: float
    baseline_energy_j: float
    samples: List[FrequencySample] = field(default_factory=list)
    #: Pinned memory clock shared by every sample of this sweep; None on
    #: legacy 1-D sweeps (reference memory clock). The baseline is always
    #: measured at the reference memory clock, even for pinned-mem rows,
    #: so the whole 2-D grid shares one baseline.
    mem_freq_mhz: Optional[float] = None

    @property
    def freqs_mhz(self) -> np.ndarray:
        """Swept frequencies (MHz), in sweep order (ascending)."""
        return np.array([s.freq_mhz for s in self.samples], dtype=float)

    @property
    def times_s(self) -> np.ndarray:
        """Median times per frequency."""
        return np.array([s.time_s for s in self.samples], dtype=float)

    @property
    def energies_j(self) -> np.ndarray:
        """Median energies per frequency."""
        return np.array([s.energy_j for s in self.samples], dtype=float)

    def speedups(self) -> np.ndarray:
        """Speedup vs the baseline run (>1 means faster than baseline)."""
        return self.baseline_time_s / self.times_s

    def normalized_energies(self) -> np.ndarray:
        """Energy normalized to the baseline run (<1 means energy saved)."""
        return self.energies_j / self.baseline_energy_j

    def sample_at(
        self, freq_mhz: float, tol_mhz: Optional[float] = None
    ) -> FrequencySample:
        """The sample whose frequency is closest to ``freq_mhz``.

        The lookup is a bin snap, not an interpolation: the request must
        fall within half a sweep bin of the nearest swept sample (the
        larger of the two adjacent sample gaps defines the local bin), or
        :class:`ConfigurationError` is raised. Pass ``tol_mhz`` to widen
        or tighten the acceptance window explicitly. A single-sample
        sweep only matches its own frequency unless ``tol_mhz`` is given.
        """
        if not self.samples:
            raise ConfigurationError("characterization holds no samples")
        freqs = self.freqs_mhz
        f = float(freq_mhz)
        idx = int(np.argmin(np.abs(freqs - f)))
        dist = float(abs(freqs[idx] - f))
        if tol_mhz is None:
            if len(self.samples) >= 2:
                gaps = np.diff(freqs)
                lo = float(gaps[idx - 1]) if idx > 0 else 0.0
                hi = float(gaps[idx]) if idx < gaps.size else 0.0
                tol_mhz = max(lo, hi) / 2.0
            else:
                tol_mhz = 0.0
        if dist > float(tol_mhz) + 1e-9:
            raise ConfigurationError(
                f"no swept sample within half a bin of {f:.1f} MHz "
                f"(nearest sample {freqs[idx]:.1f} MHz is {dist:.1f} MHz away, "
                f"tolerance {float(tol_mhz):.1f} MHz)"
            )
        return self.samples[idx]

    def best_energy_saving(self, max_speedup_loss: float = 0.1) -> FrequencySample:
        """Sample with the lowest normalized energy among those whose
        speedup loss does not exceed ``max_speedup_loss``.

        ``max_speedup_loss`` is the accepted fractional slowdown relative
        to the baseline, in ``[0, 1)``: the default ``0.1`` keeps samples
        with speedup >= 0.9 (at most a 10% slowdown, the budget the paper
        uses in §5.3).
        """
        if not (0.0 <= max_speedup_loss < 1.0):
            raise ConfigurationError(
                f"max_speedup_loss must lie in [0, 1), got {max_speedup_loss}"
            )
        sp = self.speedups()
        ne = self.normalized_energies()
        mask = sp >= (1.0 - max_speedup_loss)
        if not mask.any():
            raise ConfigurationError("no sample satisfies the speedup constraint")
        idx_all = np.flatnonzero(mask)
        idx = idx_all[int(np.argmin(ne[mask]))]
        return self.samples[int(idx)]


def _run_once(app: Application, device: SynergyDevice) -> tuple[float, float]:
    with device.profile() as region:
        app.run(device.gpu)
    assert region.time_s is not None and region.energy_j is not None
    return region.time_s, region.energy_j


#: ``(median_time_s, median_energy_j, rep_times, rep_energies)`` of one sweep point.
Measured = Tuple[float, float, np.ndarray, np.ndarray]

#: A method's measure function bound to what it runs: ``partial(measure,
#: app)`` re-runs the app, ``partial(replay_measure, plan)`` replays its
#: recorded launches. Called as ``run(device, repetitions)``.
MeasureFn = Callable[[SynergyDevice, int], Measured]


def measure(
    app: Application, device: SynergyDevice, repetitions: int
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Run ``app`` ``repetitions`` times at the device's current clock.

    Returns ``(median_time_s, median_energy_j, rep_times, rep_energies)``.
    This is the serial measure function of every sweep point (see
    :func:`measure_point`) and the oracle the replay path must match.
    """
    times = np.empty(repetitions)
    energies = np.empty(repetitions)
    for r in range(repetitions):
        times[r], energies[r] = _run_once(app, device)
    return median(times), median(energies), times, energies


def median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a 1-D float array, bit for bit.

    A sweep point's median is over a handful of repetitions, where
    sorting them as floats costs about a twentieth of ``np.median``. The
    middle value, or ``(lo + hi) / 2`` of the two middle values, is what
    ``np.median`` computes too. Where the two could differ, ``np.median``
    itself answers: on NaN, which it returns whatever the order, and on a
    zero middle value, whose sign its sum (started from ``+0.0``) may flip.
    """
    ordered = values.tolist()
    if not any(map(math.isnan, ordered)):
        ordered.sort()
        half = len(ordered) // 2
        if len(ordered) % 2:
            if ordered[half] != 0.0:
                return ordered[half]
        elif ordered and ordered[half - 1] != 0.0 and ordered[half] != 0.0:
            return (ordered[half - 1] + ordered[half]) / 2.0
    return float(np.median(values))


def measure_point(
    app: Application,
    device: SynergyDevice,
    freq_mhz: Optional[float],
    repetitions: int,
    run: MeasureFn,
) -> Tuple[Optional[float], Measured]:
    """Measure one sweep point of the paper §5.1 protocol.

    ``freq_mhz`` pins the core clock (snapped to the table); ``None`` is
    the baseline, which resets the clock to the boot behaviour (default
    clock, or the AMD auto governor). ``run`` measures the repetitions
    at that clock. Every sweep point — :func:`characterize`'s, serial or
    replayed, and every campaign-engine task — goes through here.

    Returns ``(actual_freq_mhz or None, measured)``. Raises
    :class:`ConfigurationError` when the baseline is too small for the
    sensor resolution.
    """
    if freq_mhz is None:
        device.reset_frequency()
        actual = None
    else:
        actual = device.set_core_frequency(freq_mhz)
    measured = run(device, repetitions)
    time_s, energy_j = measured[0], measured[1]
    if actual is None and (energy_j <= 0 or time_s <= 0):
        raise ConfigurationError(
            f"{app.name}: baseline measurement is below the sensor resolution; "
            "run a larger workload (more steps/iterations) so energy is measurable"
        )
    return actual, measured


def check_method(method: str) -> str:
    """Validate a measurement method: ``"serial"`` or ``"replay"``."""
    if method not in ("serial", "replay"):
        raise ConfigurationError(
            f"unknown measurement method {method!r}; expected 'serial' or 'replay'"
        )
    return method


def resolve_sweep(
    table: FrequencyTable, freqs_mhz: Optional[Sequence[float]]
) -> List[float]:
    """Snap and validate a requested sweep against a frequency table.

    ``None`` selects every supported frequency; explicit requests are
    snapped to table bins, sorted ascending, and rejected when two
    requests land in the same bin.
    """
    if freqs_mhz is None:
        sweep = [float(f) for f in table.freqs_mhz]
    else:
        sweep = sorted(float(table.snap(f)) for f in freqs_mhz)
        if len(set(sweep)) != len(sweep):
            raise ConfigurationError("frequency sweep contains duplicate bins after snapping")
    if not sweep:
        raise ConfigurationError("frequency sweep is empty")
    return sweep


def baseline_descriptor(spec: DeviceSpec) -> Tuple[str, Optional[float]]:
    """``(baseline_label, baseline_freq_mhz)`` of the clock a baseline runs at.

    Keyed on :attr:`DeviceSpec.has_default_frequency`, the predicate
    :meth:`SimulatedGPU.reset_frequency` follows: such devices reset to
    their default clock, every other one to the automatic governor (even
    when its table declares a default clock).
    """
    if spec.has_default_frequency:
        return "default configuration", spec.core_freqs.default_mhz
    return "AMD auto freq", None


def characterize(
    app: Application,
    device: SynergyDevice,
    freqs_mhz: Optional[Sequence[float]] = None,
    repetitions: int = DEFAULT_REPETITIONS,
    method: str = "serial",
) -> CharacterizationResult:
    """Sweep ``app`` over ``freqs_mhz`` on ``device`` (paper §5.1 protocol).

    Parameters
    ----------
    app:
        The application to characterize.
    device:
        Target device handle (its sensors supply measurement noise).
    freqs_mhz:
        Frequencies to sweep; defaults to every supported frequency.
    repetitions:
        Measurement repetitions per point (default 5, as in the paper).
    method:
        ``"serial"`` re-runs the application at every sweep point;
        ``"replay"`` records the launch sequence once and evaluates the
        whole sweep in one batched model pass (bit-identical results —
        see ``docs/perf.md``). Replay requires the app's launch sequence
        to be clock-independent, which holds for all shipped apps.

    Returns
    -------
    CharacterizationResult
        Baseline plus one :class:`FrequencySample` per swept frequency.
    """
    check_method(method)
    repetitions = check_positive_int(repetitions, "repetitions")
    spec = device.gpu.spec
    sweep = resolve_sweep(spec.core_freqs, freqs_mhz)
    run: MeasureFn = partial(measure, app)
    if method == "replay":
        from repro.synergy.replay import ReplayPlan, record_launches, replay_measure

        plan = ReplayPlan(device.gpu, record_launches(app, device.gpu))
        plan.prime(sweep)
        run = partial(replay_measure, plan)

    _, (base_time, base_energy, _, _) = measure_point(app, device, None, repetitions, run)
    baseline_label, baseline_freq = baseline_descriptor(spec)
    result = CharacterizationResult(
        app_name=app.name,
        device_name=device.name,
        baseline_label=baseline_label,
        baseline_freq_mhz=baseline_freq,
        baseline_time_s=base_time,
        baseline_energy_j=base_energy,
    )
    for freq in sweep:
        actual, (t, e, times, energies) = measure_point(app, device, freq, repetitions, run)
        result.samples.append(
            FrequencySample(
                freq_mhz=actual,
                time_s=t,
                energy_j=e,
                rep_times_s=times,
                rep_energies_j=energies,
            )
        )
    device.reset_frequency()
    return result
