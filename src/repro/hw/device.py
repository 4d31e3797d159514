"""The simulated GPU device.

:class:`SimulatedGPU` plays the role of the physical V100/MI100 in the
paper's testbed. It exposes:

- a DVFS interface (``set_core_frequency`` / ``reset_frequency``), with
  NVIDIA-style fixed default clocks or AMD-style automatic governor
  behaviour depending on the device spec;
- a kernel launch interface consuming :class:`repro.kernels.ir.KernelLaunch`
  objects and returning exact simulated time/energy;
- free-running time and energy counters (like NVML's total-energy
  counter), which the profiling layer in :mod:`repro.synergy` reads.

The device itself is noiseless — it is the "physical truth". Measurement
imperfections live in :mod:`repro.hw.sensors` and are applied by the
profiler, mirroring where noise enters on real hardware.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DeviceError
from repro.hw.governor import AutoGovernor
from repro.hw.perf import BatchTiming, KernelTiming, RooflineTimingModel
from repro.hw.power import PowerModel
from repro.hw.specs import (
    DeviceSpec,
    make_a100_spec,
    make_h100_spec,
    make_intel_max_spec,
    make_mi100_spec,
    make_mi250_spec,
    make_v100_spec,
)
from repro.kernels.batch import KernelLaunchBatch
from repro.kernels.ir import KernelLaunch

__all__ = [
    "BatchColumn",
    "BatchColumns",
    "BatchPoint",
    "LaunchResult",
    "SimulatedGPU",
    "create_device",
]


@dataclass(frozen=True)
class LaunchResult:
    """Exact simulated outcome of one kernel launch."""

    kernel_name: str
    core_mhz: float
    time_s: float
    energy_j: float
    timing: KernelTiming

    @property
    def power_w(self) -> float:
        """Average power over the launch."""
        return self.energy_j / self.time_s


class BatchColumn(NamedTuple):
    """A launch batch evaluated at one ``(core, mem)`` clock pair: column
    ``index`` of the ``timing`` pass, and the energy (J) per unique launch."""

    timing: BatchTiming
    index: int
    energy_j: np.ndarray


#: ``(core_mhz, pinned mem_mhz or None) -> BatchColumn``; keying on the
#: memory clock keeps a 2-D sweep's columns apart.
BatchColumns = Dict[Tuple[float, Optional[float]], BatchColumn]


class BatchPoint(NamedTuple):
    """One run of a launch batch, per unique launch: its resolved clock,
    that clock's column, time and energy. ``throttled`` counts the
    cap-throttled launch occurrences, duplicates included."""

    core_mhz: List[float]
    columns: List[BatchColumn]
    time_s: np.ndarray
    energy_j: np.ndarray
    throttled: int


class SimulatedGPU:
    """A DVFS-capable simulated GPU.

    Parameters
    ----------
    spec:
        Device description (see :func:`repro.hw.specs.make_v100_spec`).

    Notes
    -----
    Frequency semantics follow the vendor:

    - ``vendor == "nvidia"``: the device boots at the spec's default
      application clock; ``set_core_frequency`` pins a clock;
      ``reset_frequency`` restores the default.
    - ``vendor == "amd"``: the device boots in *auto* mode where an
      :class:`AutoGovernor` picks the clock per launch;
      ``set_core_frequency`` switches to a pinned manual clock;
      ``reset_frequency`` re-enables the governor.
    """

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.timing_model = RooflineTimingModel(spec)
        self.power_model = PowerModel(spec)
        self.governor: Optional[AutoGovernor] = (
            AutoGovernor(spec) if not spec.has_default_frequency else None
        )
        self._pinned_mhz: Optional[float] = None
        if spec.has_default_frequency:
            if spec.core_freqs.default_mhz is None:
                raise DeviceError(f"{spec.name}: nvidia-style spec needs a default clock")
            self._pinned_mhz = spec.core_freqs.default_mhz
        # Memory clock. None means "reference clock" and routes every
        # model call down the legacy bitwise-identical path; only an
        # explicit set_memory_frequency to a non-reference bin deviates.
        self._pinned_mem_mhz: Optional[float] = None
        self._time_counter_s = 0.0
        self._energy_counter_j = 0.0
        self._launch_count = 0
        self._power_cap_w: Optional[float] = None
        self._throttle_count = 0
        self._closed = False

    # ------------------------------------------------------------------
    # identity & introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Device name from the spec."""
        return self.spec.name

    @property
    def vendor(self) -> str:
        """Device vendor from the spec."""
        return self.spec.vendor

    def supported_frequencies(self) -> np.ndarray:
        """All supported core frequencies in MHz (ascending)."""
        return self.spec.core_freqs.freqs_mhz

    @property
    def default_frequency_mhz(self) -> Optional[float]:
        """NVIDIA default application clock, or ``None`` for auto-governed devices."""
        return self.spec.default_clock_mhz

    @property
    def is_auto_mode(self) -> bool:
        """True when the automatic governor (not a pinned clock) is active."""
        return self._pinned_mhz is None

    @property
    def pinned_frequency_mhz(self) -> Optional[float]:
        """The manually pinned clock, or ``None`` in auto mode."""
        return self._pinned_mhz

    # ------------------------------------------------------------------
    # DVFS interface
    # ------------------------------------------------------------------
    def set_core_frequency(self, freq_mhz: float) -> float:
        """Pin the core clock; returns the snapped frequency actually set."""
        self._check_open()
        snapped = self.spec.core_freqs.snap(freq_mhz)
        self._pinned_mhz = snapped
        return snapped

    def reset_frequency(self) -> None:
        """Restore the boot behaviour (default clock or auto governor)."""
        self._check_open()
        if self.spec.has_default_frequency:
            self._pinned_mhz = self.spec.core_freqs.default_mhz
        else:
            self._pinned_mhz = None

    def frequency_for(self, launch: KernelLaunch) -> float:
        """The clock the device would run ``launch`` at right now."""
        if self._pinned_mhz is not None:
            return self._pinned_mhz
        assert self.governor is not None
        return self.governor.select_mhz(launch)

    # ------------------------------------------------------------------
    # memory DVFS interface (schema-v2 devices)
    # ------------------------------------------------------------------
    def supported_memory_frequencies(self) -> np.ndarray:
        """All settable memory frequencies in MHz (ascending).

        Legacy (v1) specs expose a single-entry table at the reference
        clock.
        """
        return self.spec.mem_freq_table.freqs_mhz

    @property
    def default_memory_frequency_mhz(self) -> float:
        """The reference (boot) memory clock."""
        return self.spec.mem_freq_mhz

    @property
    def pinned_memory_frequency_mhz(self) -> Optional[float]:
        """The explicitly pinned memory clock, or ``None`` at the reference clock."""
        return self._pinned_mem_mhz

    @property
    def memory_frequency_mhz(self) -> float:
        """The memory clock the device is running at right now."""
        if self._pinned_mem_mhz is not None:
            return self._pinned_mem_mhz
        return self.spec.mem_freq_mhz

    def set_memory_frequency(self, freq_mhz: float) -> float:
        """Pin the memory clock; returns the snapped frequency actually set.

        On a legacy single-memory-frequency device only the reference
        clock snaps (a single-entry table has a zero half-bin); any other
        request raises :class:`repro.errors.FrequencyError`.
        """
        self._check_open()
        snapped = self.spec.mem_freq_table.snap(freq_mhz)
        # Pinning the reference clock is stored as None so the model
        # calls stay on the legacy (mem_mhz=None) path — same physics,
        # and bit-identical by construction either way.
        self._pinned_mem_mhz = None if snapped == self.spec.mem_freq_mhz else snapped
        return snapped

    def reset_memory_frequency(self) -> None:
        """Restore the reference (boot) memory clock."""
        self._check_open()
        self._pinned_mem_mhz = None

    # ------------------------------------------------------------------
    # power capping (RAPL/NVML-style board power limit)
    # ------------------------------------------------------------------
    @property
    def power_cap_w(self) -> Optional[float]:
        """The active board power limit, or ``None``."""
        return self._power_cap_w

    @property
    def throttle_count(self) -> int:
        """Launches whose clock was reduced to honour the power cap."""
        return self._throttle_count

    def set_power_cap(self, watts: Optional[float]) -> None:
        """Set (or clear, with ``None``) a board power limit.

        Like NVML's power-management limit: when a kernel would exceed
        the cap at the requested clock, the driver throttles the core
        frequency to the highest bin whose projected power fits.
        """
        self._check_open()
        if watts is None:
            self._power_cap_w = None
            return
        watts = float(watts)
        min_power = self.power_model.idle_power_w(self.spec.core_freqs.min_mhz)
        if watts < min_power:
            raise DeviceError(
                f"{self.name}: power cap {watts:.0f} W below the idle floor "
                f"({min_power:.0f} W)"
            )
        self._power_cap_w = watts

    def _busy_power_w(self, launch: KernelLaunch, core_mhz: float) -> float:
        mem_mhz = self._pinned_mem_mhz
        timing = self.timing_model.time(launch, core_mhz, mem_mhz)
        u_comp_eff = timing.effective_u_comp(self.spec.active_idle_frac)
        return self.power_model.power_w(core_mhz, u_comp_eff, timing.u_mem, mem_mhz)

    def _capped_frequency(self, launch: KernelLaunch, core_mhz: float) -> tuple[float, bool]:
        """``(frequency, throttled)`` honouring the cap, without counter effects.

        Pure with respect to device state, so :meth:`evaluate_batch` can
        resolve clocks per *unique* launch and count throttles per
        occurrence separately.
        """
        cap = self._power_cap_w
        if cap is None or self._busy_power_w(launch, core_mhz) <= cap:
            return core_mhz, False
        freqs = self.spec.core_freqs.freqs_mhz
        candidates = freqs[freqs <= core_mhz + 1e-9]
        # Power is monotone in frequency at fixed work: bisect.
        lo, hi = 0, len(candidates) - 1
        best = candidates[0]
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._busy_power_w(launch, float(candidates[mid])) <= cap:
                best = candidates[mid]
                lo = mid + 1
            else:
                hi = mid - 1
        return float(best), True

    def _cap_frequency(self, launch: KernelLaunch, core_mhz: float) -> float:
        """Highest table frequency <= ``core_mhz`` honouring the cap."""
        freq, throttled = self._capped_frequency(launch, core_mhz)
        if throttled:
            self._throttle_count += 1
        return freq

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def launch(self, launch: KernelLaunch) -> LaunchResult:
        """Execute one kernel launch; advances the time/energy counters."""
        self._check_open()
        core_mhz = self._cap_frequency(launch, self.frequency_for(launch))
        mem_mhz = self._pinned_mem_mhz
        timing = self.timing_model.time(launch, core_mhz, mem_mhz)
        energy = self.power_model.energy_j(
            core_mhz,
            timing.effective_u_comp(self.spec.active_idle_frac),
            timing.u_mem,
            timing.exec_s,
            idle_s=timing.overhead_s,
            mem_mhz=mem_mhz,
        )
        self._time_counter_s += timing.time_s
        self._energy_counter_j += energy
        self._launch_count += 1
        return LaunchResult(
            kernel_name=launch.spec.name,
            core_mhz=core_mhz,
            time_s=timing.time_s,
            energy_j=energy,
            timing=timing,
        )

    def launch_many(self, launches: Iterable[KernelLaunch]) -> List[LaunchResult]:
        """Execute a sequence of launches in order."""
        return [self.launch(l) for l in launches]

    def evaluate_batch(self, batch: KernelLaunchBatch, columns: BatchColumns) -> BatchPoint:
        """Evaluate one run of ``batch`` at the current clock state.

        Each unique launch's clock is resolved as :meth:`launch` resolves
        it: the pinned clock or the governor's pick, then the power cap.
        Missing clocks are added to ``columns`` by
        :meth:`fill_batch_columns`, so a caller that keeps ``columns``
        (a replay plan) evaluates each clock once. Device state is
        untouched; the caller accounts the throttles.

        A pinned clock without a power cap is every launch's clock, so
        that point is its column, taken as a slice: the returned arrays
        are then views of ``columns``, which callers only read.
        """
        pinned = self._pinned_mhz
        if pinned is not None and self._power_cap_w is None and batch.n_unique:
            self.fill_batch_columns(batch, columns, [pinned])
            column = columns[(pinned, self._pinned_mem_mhz)]
            n = batch.n_unique
            return BatchPoint(
                core_mhz=[pinned] * n,
                columns=[column] * n,
                time_s=column.timing.time_s[:, column.index],
                energy_j=column.energy_j,
                throttled=0,
            )
        clocks: List[float] = []
        throttled = 0
        for i, launch in enumerate(batch.unique):
            freq, hit = self._capped_frequency(launch, self.frequency_for(launch))
            clocks.append(freq)
            if hit:
                throttled += int(batch.counts[i])
        self.fill_batch_columns(batch, columns, sorted(set(clocks)))
        mem_mhz = self._pinned_mem_mhz
        picked = [columns[(f, mem_mhz)] for f in clocks]
        return BatchPoint(
            core_mhz=clocks,
            columns=picked,
            time_s=np.array(
                [c.timing.time_s[i, c.index] for i, c in enumerate(picked)], dtype=float
            ),
            energy_j=np.array([c.energy_j[i] for i, c in enumerate(picked)], dtype=float),
            throttled=throttled,
        )

    def fill_batch_columns(
        self, batch: KernelLaunchBatch, columns: BatchColumns, freqs_mhz: Sequence[float]
    ) -> None:
        """Add the core clocks ``columns`` lacks, at the current memory clock.

        One ``time_batch`` and one ``energy_batch`` call cover every
        missing clock; each element is bit-identical to :meth:`launch`.
        """
        mem_mhz = self._pinned_mem_mhz
        missing = [f for f in freqs_mhz if (f, mem_mhz) not in columns]
        if not missing or batch.n_unique == 0:
            return
        bt = self.timing_model.time_batch(batch, missing, mem_mhz)
        energies = self.power_model.energy_batch(
            bt.freqs_mhz[None, :],
            bt.effective_u_comp(self.spec.active_idle_frac),
            bt.u_mem,
            bt.exec_s,
            idle_s=bt.overhead_s,
            mem_mhz=mem_mhz,
        )
        for j, f in enumerate(missing):
            columns[(f, mem_mhz)] = BatchColumn(bt, j, energies[:, j])

    def idle(self, duration_s: float) -> float:
        """Account ``duration_s`` of host-side idle time at the current clock.

        Returns the idle energy added. In auto mode the governor parks at
        the lowest bin while idle (as real drivers do).
        """
        self._check_open()
        if duration_s < 0:
            raise ValueError("duration_s must be >= 0")
        if duration_s == 0:
            return 0.0
        mhz = self._pinned_mhz if self._pinned_mhz is not None else self.spec.core_freqs.min_mhz
        energy = self.power_model.idle_power_w(mhz) * duration_s
        self._time_counter_s += duration_s
        self._energy_counter_j += energy
        return energy

    # ------------------------------------------------------------------
    # counters & lifecycle
    # ------------------------------------------------------------------
    @property
    def time_counter_s(self) -> float:
        """Free-running total busy+idle time accounted so far."""
        return self._time_counter_s

    @property
    def energy_counter_j(self) -> float:
        """Free-running total energy counter (joules), like NVML's."""
        return self._energy_counter_j

    @property
    def launch_count(self) -> int:
        """Total number of kernel launches executed."""
        return self._launch_count

    def reset_counters(self) -> None:
        """Zero the time/energy/launch counters (not the frequency state)."""
        self._time_counter_s = 0.0
        self._energy_counter_j = 0.0
        self._launch_count = 0

    def fast_forward(
        self,
        *,
        time_counter_s: float,
        energy_counter_j: float,
        launches: int = 0,
        throttles: int = 0,
    ) -> None:
        """Advance the counters to externally computed absolute values.

        The replay engine (:mod:`repro.synergy.replay`) computes counter
        trajectories for whole application runs without issuing the
        launches one by one; this applies the result so the device's
        externally visible state (counters, launch/throttle totals)
        matches what the serial launch loop would have left behind.
        Counters are free-running and may only move forward.
        """
        self._check_open()
        time_counter_s = float(time_counter_s)
        energy_counter_j = float(energy_counter_j)
        if time_counter_s < self._time_counter_s or energy_counter_j < self._energy_counter_j:
            raise DeviceError(
                f"{self.name}: fast_forward cannot rewind the free-running counters"
            )
        if launches < 0 or throttles < 0:
            raise DeviceError("fast_forward counts must be >= 0")
        self._time_counter_s = time_counter_s
        self._energy_counter_j = energy_counter_j
        self._launch_count += int(launches)
        self._throttle_count += int(throttles)

    def close(self) -> None:
        """Mark the device unusable; later launches raise :class:`DeviceError`."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise DeviceError(f"{self.name}: device is closed")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "auto" if self.is_auto_mode else f"{self._pinned_mhz:.0f} MHz"
        return f"SimulatedGPU({self.name!r}, clock={mode})"


#: Built-in device short names and aliases -> their spec factory.
_BUILTIN_SPECS = {
    **dict.fromkeys(("v100", "nvidia", "nvidia v100"), make_v100_spec),
    **dict.fromkeys(("mi100", "amd", "amd mi100"), make_mi100_spec),
    **dict.fromkeys(("max1100", "intel", "intel max 1100", "pvc"), make_intel_max_spec),
    **dict.fromkeys(("a100", "nvidia a100"), make_a100_spec),
    **dict.fromkeys(("h100", "nvidia h100"), make_h100_spec),
    **dict.fromkeys(("mi250", "amd mi250"), make_mi250_spec),
}


@functools.lru_cache(maxsize=None)
def _builtin_spec(factory) -> DeviceSpec:
    """Each built-in spec, built once per process.

    A spec is a frozen dataclass whose frequency tables hold read-only
    arrays, so every device built from it can share it.
    """
    return factory()


def create_device(name: str) -> SimulatedGPU:
    """Create a device by short name: ``"v100"``, ``"a100"``, ``"mi250"``, ...

    Devices of one model share its spec, built once per process.
    """
    factory = _BUILTIN_SPECS.get(name.strip().lower())
    if factory is None:
        raise DeviceError(
            f"unknown device {name!r}; expected 'v100', 'a100', 'h100', "
            f"'mi100', 'mi250' or 'max1100'"
        )
    return SimulatedGPU(_builtin_spec(factory))
