"""Record-once / replay-many characterization fast path.

Both shipped applications emit a launch sequence that does not depend on
the core clock (the clock changes *how long* each launch takes, not
*which* launches happen). The serial protocol nevertheless re-executes
the whole application at every sweep point and repetition — for a full
196-bin table that is roughly a million redundant scalar model
evaluations per input.

The replay engine removes the redundancy in three steps:

1. **Record**: run the application once against a
   :class:`LaunchRecorder` (a minimal stand-in for the GPU's launch
   interface) to capture the launch sequence.
2. **Evaluate**: deduplicate the sequence into a
   :class:`repro.kernels.batch.KernelLaunchBatch` and evaluate it through
   the device's batched evaluator
   (:meth:`repro.hw.device.SimulatedGPU.evaluate_batch`): every
   (unique launch x frequency) cell in one
   :meth:`~repro.hw.perf.RooflineTimingModel.time_batch` /
   :meth:`~repro.hw.power.PowerModel.energy_batch` pass.
3. **Replay**: for each sweep point, rebuild the device's counter
   trajectory over all repetitions in one cumulative sum seeded with the
   current counters (the additions the serial ``+=`` loop makes, in its
   order, so bit-identical to it) and feed the exact counter deltas to
   the *same* sensors in the *same* order as the serial protocol.

Because the true values and the sensor-noise stream both match the
serial path bit-for-bit, ``characterize(..., method="replay")`` returns
byte-identical results — cache keys and seeds are untouched. See
``docs/perf.md`` for the equivalence argument and its boundaries.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.device import BatchColumns, SimulatedGPU
from repro.kernels.batch import KernelLaunchBatch
from repro.kernels.ir import KernelLaunch
from repro.synergy.api import SynergyDevice
from repro.synergy.runner import median

__all__ = ["LaunchRecorder", "record_launches", "ReplayPlan", "replay_measure"]


class LaunchRecorder:
    """Captures an application's launch sequence without executing it.

    Implements just the launch interface of
    :class:`repro.hw.device.SimulatedGPU`. Launch calls return ``None``:
    an application whose control flow depends on launch *results* (or on
    counters, clocks, …) is not replayable, and any such access fails
    with a clear error instead of recording a wrong sequence.
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        self.launches: List[KernelLaunch] = []

    @property
    def name(self) -> str:
        """Device name from the spec."""
        return self.spec.name

    def launch(self, launch: KernelLaunch) -> None:
        """Record one launch (no simulation, no result)."""
        self.launches.append(launch)

    def launch_many(self, launches) -> None:
        """Record a sequence of launches."""
        for launch in launches:
            self.launch(launch)

    def __getattr__(self, attr: str):
        raise ConfigurationError(
            f"application accessed SimulatedGPU.{attr} while recording; only "
            "launch/launch_many are replayable — characterize it "
            "with method='serial' instead"
        )


def record_launches(app, gpu: SimulatedGPU) -> List[KernelLaunch]:
    """Run ``app`` once against a recorder and return its launch sequence.

    The recording run touches neither the device counters nor the sensor
    noise streams, so inserting it in front of a serial protocol changes
    nothing observable.
    """
    recorder = LaunchRecorder(gpu.spec)
    app.run(recorder)
    return recorder.launches


class ReplayPlan:
    """A recorded launch sequence plus its device's evaluated clock columns.

    The plan owns the deduplicated batch and ``columns``, the column
    cache of :meth:`repro.hw.device.SimulatedGPU.evaluate_batch`, which
    maps a ``(core, mem)`` clock pair to the per-unique-launch
    evaluation. :meth:`prime` fills the cache for a whole sweep in a
    single batched model evaluation; :meth:`point_values` resolves the
    device's *current* clock state (pinned clock, auto governor, power
    cap) into per-launch value arrays for one application run. Another
    plan of the same launches can start from ``columns``.
    """

    def __init__(
        self,
        gpu: SimulatedGPU,
        launches: Union[Sequence[KernelLaunch], KernelLaunchBatch],
        columns: Optional[BatchColumns] = None,
    ) -> None:
        """``launches`` is a recorded sequence, or one already deduplicated.

        ``columns`` are clocks already evaluated for these launches on a
        device of the same spec, such as another plan's ``columns``. The
        plan copies them and evaluates only the clocks they lack.
        """
        self.gpu = gpu
        if not isinstance(launches, KernelLaunchBatch):
            launches = KernelLaunchBatch.from_launches(launches)
        self.batch = launches
        self.columns: BatchColumns = {} if columns is None else dict(columns)

    @property
    def n_launches(self) -> int:
        """Recorded launches per application run."""
        return self.batch.n_launches

    @property
    def n_unique(self) -> int:
        """Distinct launches after dedup."""
        return self.batch.n_unique

    @property
    def model_evals(self) -> int:
        """Batched (unique x frequency) model evaluations performed."""
        return self.batch.n_unique * len(self.columns)

    def prime(self, freqs_mhz) -> None:
        """Pre-evaluate a pinned-clock sweep in one batched model pass.

        With no power cap every pinned point resolves to its own bin, so
        the whole sweep is a single ``time_batch`` call; capped or
        governor-resolved clocks are filled lazily by
        :meth:`point_values` (at most a few extra bins).
        """
        if self.gpu.power_cap_w is None:
            self.gpu.fill_batch_columns(self.batch, self.columns, [float(f) for f in freqs_mhz])

    def point_values(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """Per-launch values for one run at the device's current clock state.

        Returns ``(time_s, energy_j, throttled_launches)`` where the
        arrays are in original launch order (duplicates expanded) and
        ``throttled_launches`` counts cap-throttled launch occurrences,
        mirroring the serial per-launch throttle accounting.
        """
        point = self.gpu.evaluate_batch(self.batch, self.columns)
        inverse = self.batch.inverse
        return point.time_s[inverse], point.energy_j[inverse], point.throttled


def replay_measure(
    plan: ReplayPlan, device: SynergyDevice, repetitions: int
) -> Tuple[float, float, np.ndarray, np.ndarray]:
    """Replay ``repetitions`` runs at the device's current clock state.

    Drop-in replacement for :func:`repro.synergy.runner.measure`: same
    return shape, same sensor read order (time then energy, once per
    repetition), same counter evolution on the underlying device.
    """
    gpu = plan.gpu
    n = plan.n_launches
    times = np.empty(repetitions)
    energies = np.empty(repetitions)
    t_launch, e_launch, n_throttled = plan.point_values()
    # Both counters after every repetition, in one cumulative sum over the
    # current counters and then the runs back to back: the additions the
    # serial loop makes, in its order, so each run starts from the exact
    # counter the last one left.
    sums = np.empty((2, 1 + repetitions * n))
    sums[:, 0] = gpu.time_counter_s, gpu.energy_counter_j
    runs = sums[:, 1:].reshape(2, repetitions, n)  # a view into ``sums``
    runs[0], runs[1] = t_launch, e_launch
    marks = np.cumsum(sums, axis=1)[:, ::n] if n else np.repeat(sums, repetitions + 1, axis=1)
    t_marks, e_marks = marks.tolist()
    for r in range(repetitions):
        t0, t1, e0, e1 = t_marks[r], t_marks[r + 1], e_marks[r], e_marks[r + 1]
        gpu.fast_forward(
            time_counter_s=t1,
            energy_counter_j=e1,
            launches=n,
            throttles=n_throttled,
        )
        times[r] = device.time_sensor.read(t1 - t0)
        energies[r] = device.energy_sensor.read(e1 - e0)
    return median(times), median(energies), times, energies
