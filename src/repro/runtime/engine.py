"""The campaign execution engine.

Runs the (application x frequency) measurement grid in the calling
process, one point after another, and merges per-point results back
into :class:`repro.synergy.runner.CharacterizationResult` objects.

Determinism
-----------
Every sweep point is an independent :class:`MeasurementTask` carrying its
own seed, derived from the campaign seed plus the task key (see
:mod:`repro.runtime.seeding`). Each task builds a *fresh* device from
its spec and a fresh sensor pair from its seed, so the measured noise
at a point depends only on (campaign seed, device spec, app config,
point, repetitions) — never on which other points ran first or came
from the cache. A resumed or partly warm campaign therefore measures
the same values as a cold one. The engine hands each task its sensor
pair as state words, derived for a whole sweep at once (see below);
they are bitwise the streams ``SynergyDevice(gpu, seed)`` spawns.

Caching
-------
When a :class:`repro.runtime.cache.ResultCache` is attached, each task is
looked up before execution and stored after; re-running a finished (or
interrupted) campaign replays cached points instantly and computes only
what is missing. Cache statistics are accumulated in
:class:`CampaignStats` and surfaced by the CLI run summary.

What every point of an (app, device) sweep shares is computed once per
sweep: the device signature and app fingerprint are encoded and hashed
once for the cache keys (:class:`repro.runtime.cache.SweepKeys`) and once
for the task seeds (:class:`repro.runtime.seeding.TaskSeeder`), and a
replay sweep records and deduplicates each app's launches once, handing
the batch to every task of the app. After the cache lookups, the model
cells of every missed point of an app at one memory clock are evaluated
in one batched pass, and the sensor streams of every missed point of the
sweep are derived in one seeding pass
(:func:`repro.synergy.api.sensor_stream_words`): each missed point's
task is built once, carrying its app's evaluated columns and its own
stream words, so no task hashes a seed and a cached point derives
nothing.

Resilience
----------
With a :class:`repro.faults.FaultPlan` attached, every task runs inside
a retry loop: an injected :class:`repro.errors.TransientFaultError`
aborts the attempt, and the next one starts at once, with no backoff, on
a *fresh* device + sensor pair rebuilt from the task seed — so a
recovered attempt is bit-identical to a fault-free run. A task that
exhausts its retry budget is **quarantined** rather than aborting the
campaign: the sweep point is dropped, the stats record what was lost
(``quarantined`` / ``quarantined_points`` / ``completeness()``), and the
campaign degrades to a partial — but still exactly reproducible —
result. Non-injected errors (real bugs) still propagate loudly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, DatasetError, TransientFaultError
from repro.faults.injector import (
    SITE_SENSOR_ENERGY,
    SITE_SENSOR_TIME,
    SITE_WORKER,
    FaultInjector,
)
from repro.faults.plan import FaultPlan
from repro.hw.device import BatchColumns, SimulatedGPU
from repro.hw.specs import DeviceSpec
from repro.kernels.batch import KernelLaunchBatch
from repro.runtime.cache import CanonicalJSON, ResultCache, SweepKeys
from repro.runtime.seeding import TaskSeeder, canonicalize
from repro.synergy.api import SynergyDevice, sensor_stream_words
from repro.synergy.replay import ReplayPlan, record_launches, replay_measure
from repro.synergy.runner import (
    Application,
    CharacterizationResult,
    DEFAULT_REPETITIONS,
    FrequencySample,
    baseline_descriptor,
    check_method,
    measure,
    measure_point,
    resolve_sweep,
)

__all__ = [
    "MeasurementTask",
    "PointMeasurement",
    "TaskOutcome",
    "CampaignStats",
    "CampaignEngine",
    "app_fingerprint",
    "execute_task",
    "execute_task_resilient",
]

#: Sweep-point label of the baseline (unpinned) run in task keys.
BASELINE_POINT = "baseline"


def _point_key(freq_mhz: Optional[float], mem_freq_mhz: Optional[float]):
    """The task-key value identifying one sweep point.

    Legacy 1-D points keep their historical keys (``"baseline"`` or the
    bare core frequency), so seeds and cache entries are unchanged; only
    points pinned at a non-reference memory clock get the composite
    ``"<core>|mem<mem>"`` key.
    """
    if freq_mhz is None:
        return BASELINE_POINT
    if mem_freq_mhz is None:
        return float(freq_mhz)
    return f"{float(freq_mhz)}|mem{float(mem_freq_mhz)}"


def _point_label(app_name: str, freq_mhz: Optional[float], mem_freq_mhz: Optional[float]) -> str:
    """Human-readable label of one sweep point, for progress and quarantine."""
    point = BASELINE_POINT if freq_mhz is None else f"{freq_mhz:.0f} MHz"
    if mem_freq_mhz is not None:
        point = f"{point} / mem {mem_freq_mhz:.0f} MHz"
    return f"{app_name} @ {point}"


#: Progress callback: (done, total, label, from_cache).
ProgressFn = Callable[[int, int, str, bool], None]


def app_fingerprint(app: Application) -> Dict[str, Any]:
    """A stable, JSON-able identity for an application's configuration.

    Preference order: an explicit ``cache_config`` attribute (value or
    zero-argument callable) for apps that know their own identity; then
    the dataclass fields for dataclass apps (both shipped applications —
    :class:`repro.cronos.app.CronosApplication` and
    :class:`repro.ligen.app.LigenApplication` — are frozen dataclasses).
    Anything else is rejected rather than keyed by name alone, which
    would let two differently-configured workloads collide in the cache.
    """
    config = getattr(app, "cache_config", None)
    if config is not None:
        payload = config() if callable(config) else config
    elif dataclasses.is_dataclass(app) and not isinstance(app, type):
        payload = dataclasses.asdict(app)
    else:
        raise ConfigurationError(
            f"{getattr(app, 'name', type(app).__name__)}: application is not "
            "fingerprintable for campaign caching; make it a dataclass or give "
            "it a `cache_config` attribute describing its configuration"
        )
    return {
        "type": f"{type(app).__module__}.{type(app).__qualname__}",
        "config": canonicalize(payload),
    }


@dataclass(frozen=True)
class MeasurementTask:
    """One sweep point: an app at one frequency (or baseline).

    ``freq_mhz is None`` means the baseline run (default clock on
    NVIDIA/Intel, automatic governor on AMD). ``seed`` fully determines
    the sensor noise the point sees.
    """

    app: Application
    spec: DeviceSpec
    freq_mhz: Optional[float]
    repetitions: int
    seed: int
    ideal_sensors: bool = False
    #: "serial" re-runs the app per repetition; "replay" records the
    #: launch sequence once and replays counter trajectories (bit-identical
    #: results, so the method is deliberately NOT part of the cache key).
    method: str = "serial"
    #: Deterministic fault plan; ``None`` runs the real (reliable) stack.
    fault_plan: Optional[FaultPlan] = None
    #: Attempts under a fault plan, the first one included (ignored
    #: without a plan).
    max_attempts: int = 3
    #: Pinned memory clock; ``None`` means the reference clock (the only
    #: value legacy 1-D campaigns ever construct). Points pinned *at* the
    #: reference clock are normalized to ``None`` by the engine so they
    #: share seeds and cache entries with pre-v2 campaigns bit for bit.
    mem_freq_mhz: Optional[float] = None
    #: The app's deduplicated launch sequence, which a replay task needs
    #: and a serial one ignores. The engine records it once per sweep and
    #: every task of the app shares it.
    launches: Optional[KernelLaunchBatch] = field(default=None, compare=False, repr=False)
    #: The clocks the engine's column pass evaluated for the app's launches
    #: (see :func:`_sweep_columns`), which every replay task of the app
    #: reads and none writes. A clock it lacks is evaluated by the task,
    #: as without it.
    columns: Optional[BatchColumns] = field(default=None, compare=False, repr=False)
    #: The PCG64 state words of the task's energy and time sensor streams,
    #: ``seed``'s row of :func:`repro.synergy.api.sensor_stream_words`,
    #: which the engine derives in one pass over a sweep's missed points.
    #: ``None`` spawns the same two streams from ``seed``.
    streams: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.method == "replay" and self.launches is None:
            raise ConfigurationError(
                f"{self.label}: a replay task needs its app's recorded launches"
            )

    @property
    def label(self) -> str:
        """Human-readable task label for progress reporting."""
        return _point_label(self.app.name, self.freq_mhz, self.mem_freq_mhz)

    @property
    def scope(self) -> str:
        """Fault-injection scope: decorrelates tasks, survives retries.

        Derived from the task seed (itself a pure function of the
        campaign seed + task identity), so chaos decisions depend only
        on values — never on which tasks ran before.
        """
        return f"task:{self.seed}"


@dataclass(frozen=True)
class PointMeasurement:
    """The (noisy) measured outcome of one task, ready for JSON caching."""

    freq_mhz: Optional[float]
    time_s: float
    energy_j: float
    rep_times_s: Tuple[float, ...]
    rep_energies_j: Tuple[float, ...]
    mem_freq_mhz: Optional[float] = None

    def as_record(self) -> Dict[str, Any]:
        """Plain-dict form stored in the result cache.

        The memory clock is emitted only when pinned off-reference, so
        legacy 1-D cache records keep their exact historical bytes.
        """
        record = {
            "freq_mhz": self.freq_mhz,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "rep_times_s": list(self.rep_times_s),
            "rep_energies_j": list(self.rep_energies_j),
        }
        if self.mem_freq_mhz is not None:
            record["mem_freq_mhz"] = self.mem_freq_mhz
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "PointMeasurement":
        """Inverse of :meth:`as_record`.

        Raises :class:`DatasetError` when ``record`` is not of that shape:
        a missing field, or a non-number where a number belongs.
        """
        try:
            freq = record["freq_mhz"]
            mem = record.get("mem_freq_mhz")
            return cls(
                freq_mhz=None if freq is None else _number(freq),
                time_s=_number(record["time_s"]),
                energy_j=_number(record["energy_j"]),
                rep_times_s=tuple(_number(v) for v in record["rep_times_s"]),
                rep_energies_j=tuple(_number(v) for v in record["rep_energies_j"]),
                mem_freq_mhz=None if mem is None else _number(mem),
            )
        except (AttributeError, KeyError, TypeError, OverflowError) as exc:
            raise DatasetError(f"malformed campaign point record: {exc!r}") from exc

    def fits(
        self, freq_mhz: Optional[float], mem_freq_mhz: Optional[float], repetitions: int
    ) -> bool:
        """Whether this can be the measurement of a point at ``freq_mhz`` and
        ``mem_freq_mhz``: the same kind of point (baseline or pinned,
        memory clock pinned or not) and one value per repetition."""
        return (
            (self.freq_mhz is None) == (freq_mhz is None)
            and (self.mem_freq_mhz is None) == (mem_freq_mhz is None)
            and len(self.rep_times_s) == len(self.rep_energies_j) == repetitions
        )

    def to_sample(self) -> FrequencySample:
        """The pinned-clock view of this measurement."""
        if self.freq_mhz is None:
            raise ConfigurationError("baseline measurement is not a FrequencySample")
        return FrequencySample(
            freq_mhz=self.freq_mhz,
            time_s=self.time_s,
            energy_j=self.energy_j,
            rep_times_s=np.asarray(self.rep_times_s, dtype=float),
            rep_energies_j=np.asarray(self.rep_energies_j, dtype=float),
            mem_freq_mhz=self.mem_freq_mhz,
        )


def _is_int(value: Any) -> bool:
    """Whether ``value`` is an integer: a NumPy one is, a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _number(value: Any) -> float:
    """``value`` as a float; a JSON number is the only thing accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _build_device(
    task: MeasurementTask, injector: Optional[FaultInjector] = None
) -> SynergyDevice:
    """A fresh device + sensor pair for one attempt at ``task``.

    With an injector the GPU and both sensors are wrapped in their
    fault-injection shells; without one this is byte-for-byte the
    historical build, so fault-free campaigns are untouched.
    """
    if injector is None:
        return _with_sensors(task, SimulatedGPU(task.spec))
    # Deferred import: the wrappers subclass ResultCache, so importing
    # them while repro.runtime is still initializing would be circular.
    from repro.faults.wrappers import FaultyGPU, FaultySensor

    device = _with_sensors(task, FaultyGPU(task.spec, injector))
    device.time_sensor = FaultySensor(device.time_sensor, injector, SITE_SENSOR_TIME)
    device.energy_sensor = FaultySensor(
        device.energy_sensor, injector, SITE_SENSOR_ENERGY
    )
    return device


def _with_sensors(task: MeasurementTask, gpu: SimulatedGPU) -> SynergyDevice:
    """``gpu`` with ``task``'s fresh sensor pair: seeded from the stream
    words the task carries, or spawned from its seed (the same streams)."""
    if task.streams is None:
        return SynergyDevice(gpu, seed=task.seed, ideal_sensors=task.ideal_sensors)
    return SynergyDevice.from_stream_words(gpu, task.streams, task.ideal_sensors)


def execute_task(task: MeasurementTask) -> PointMeasurement:
    """Run one measurement task on a freshly built device.

    ``task.method == "replay"`` replays the repetitions of the task's
    recorded launch sequence through the batched model path — same
    device build, same sensor streams, same measured values bit-for-bit
    (see ``docs/perf.md``). Any fault plan on the task is ignored here —
    this is the single-attempt primitive; the retrying entry point is
    :func:`execute_task_resilient`.
    """
    return _measure_on(task, _build_device(task))


def _measure_on(task: MeasurementTask, device: SynergyDevice) -> PointMeasurement:
    """One measurement attempt at ``task`` on an already-built device.

    The point is measured by :func:`repro.synergy.runner.measure_point`,
    the primitive ``characterize`` loops over. A replay task replays its
    recorded launches from the columns it carries, evaluating only a
    clock they lack.
    """
    actual_mem: Optional[float] = None
    if task.mem_freq_mhz is not None:
        # Pin the memory clock for the whole point. Legacy tasks (mem is
        # None) never touch the memory domain, so this branch is inert
        # for every pre-v2 campaign.
        actual_mem = device.set_memory_frequency(task.mem_freq_mhz)
    if task.method == "replay":
        run = partial(replay_measure, ReplayPlan(device.gpu, task.launches, task.columns))
    else:
        run = partial(measure, task.app)
    actual, (t, e, times, energies) = measure_point(
        task.app, device, task.freq_mhz, task.repetitions, run
    )
    return PointMeasurement(
        freq_mhz=actual,
        time_s=t,
        energy_j=e,
        rep_times_s=tuple(times.tolist()),
        rep_energies_j=tuple(energies.tolist()),
        mem_freq_mhz=actual_mem,
    )


class _SweepPoint(NamedTuple):
    """One point of a sweep before its cache lookup: what a miss's task is
    built from, with the sweep's spec, repetitions and engine settings."""

    app: Application
    launches: Optional[KernelLaunchBatch]
    freq_mhz: Optional[float]
    mem_freq_mhz: Optional[float]
    seed: int


def _replay_clock(spec: DeviceSpec, freq_mhz: Optional[float]) -> Optional[float]:
    """The core clock a replay point runs at, when known before it runs.

    A pinned point runs at its (already snapped) clock and a baseline at
    the default clock. An auto-governed baseline picks its clocks per
    launch as it runs: ``None``.
    """
    if freq_mhz is not None:
        return freq_mhz
    return spec.core_freqs.default_mhz if spec.has_default_frequency else None


def _sweep_columns(
    spec: DeviceSpec, points: Sequence[_SweepPoint]
) -> List[Optional[BatchColumns]]:
    """Each replay point's evaluated columns, in ``points`` order.

    The points of one app in one sweep share its recorded batch. Those at
    one memory clock share one column pass: a single ``time_batch`` and
    ``energy_batch`` call over all their core clocks, on a device built
    from ``spec``, as ``characterize`` primes its plan. Each point gets
    its app's column map, which its task's :class:`ReplayPlan` copies
    before it adds a clock. A point whose clock is not known before it
    runs, an auto-governed baseline, gets ``None`` and its task
    evaluates its clocks, so the values are bitwise those of a task
    without columns.
    """
    clocks = [_replay_clock(spec, point.freq_mhz) for point in points]
    plans: Dict[int, ReplayPlan] = {}
    wanted: Dict[Tuple[int, Optional[float]], List[float]] = {}
    for point, clock in zip(points, clocks):
        if clock is not None:
            batch = id(point.launches)
            if batch not in plans:
                plans[batch] = ReplayPlan(SimulatedGPU(spec), point.launches)
            wanted.setdefault((batch, point.mem_freq_mhz), []).append(clock)
    for (batch, mem), group in wanted.items():
        plan = plans[batch]
        if mem is None:
            plan.gpu.reset_memory_frequency()
        else:
            plan.gpu.set_memory_frequency(mem)
        plan.prime(sorted(set(group)))
    return [
        None if clock is None else plans[id(point.launches)].columns
        for point, clock in zip(points, clocks)
    ]


@dataclass(frozen=True)
class TaskOutcome:
    """What one resilient task execution produced.

    ``measurement is None`` means the task exhausted its retry budget on
    injected transient faults and was quarantined; ``error`` then holds
    the final fault's description.
    """

    measurement: Optional[PointMeasurement]
    attempts: int = 1
    faults: int = 0
    error: Optional[str] = None

    @property
    def quarantined(self) -> bool:
        """Whether the task failed persistently and was dropped."""
        return self.measurement is None


def execute_task_resilient(task: MeasurementTask) -> TaskOutcome:
    """Run ``task`` with per-task retry over injected transient faults.

    The engine's per-task entry point. Without a fault plan this is
    exactly :func:`execute_task` (one attempt, no wrappers). With one,
    each attempt builds a fresh device/sensor pair (so the successful
    attempt is bit-identical to a fault-free run) while the *injector*
    persists across attempts — occurrence counters keep advancing, so a
    transient fault does not re-fire identically forever. Only
    :class:`TransientFaultError` is retried; real errors propagate.
    """
    plan = task.fault_plan
    if plan is None:
        return TaskOutcome(execute_task(task))
    injector = FaultInjector(plan, scope=task.scope)
    last_error: Optional[TransientFaultError] = None
    for attempt in range(task.max_attempts):
        try:
            injector.maybe_raise(SITE_WORKER, "worker_crash")
            measurement = _measure_on(task, _build_device(task, injector))
            return TaskOutcome(
                measurement, attempts=attempt + 1, faults=injector.fault_count
            )
        except TransientFaultError as exc:
            last_error = exc
    return TaskOutcome(
        None,
        attempts=task.max_attempts,
        faults=injector.fault_count,
        error=str(last_error),
    )


@dataclass
class CampaignStats:
    """Engine-lifetime task and cache counters for the run summary."""

    tasks_total: int = 0
    executed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_bytes_read: int = 0
    cache_bytes_written: int = 0
    #: Launch-evaluation accounting (non-zero only for replay campaigns):
    #: launches recorded per app run, distinct launches after dedup, the
    #: batched (unique x point) model evaluations the replay path pays
    #: for, and the per-occurrence evaluations the serial path would
    #: have paid across all points and repetitions.
    launches_recorded: int = 0
    unique_launches: int = 0
    launch_evals_replay: int = 0
    launch_evals_serial_equivalent: int = 0
    #: Resilience accounting (non-zero only under an injected fault plan):
    #: extra attempts spent recovering, total faults the tasks observed,
    #: and the sweep points that exhausted their retry budget.
    retries: int = 0
    faults_injected: int = 0
    quarantined: int = 0
    quarantined_points: List[str] = field(default_factory=list)

    def completeness(self) -> float:
        """Fraction of requested sweep points actually measured."""
        if self.tasks_total == 0:
            return 1.0
        return (self.tasks_total - self.quarantined) / self.tasks_total

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (used by run summaries and tests)."""
        record: Dict[str, Any] = dataclasses.asdict(self)
        record["completeness"] = self.completeness()
        return record


class CampaignEngine:
    """Cached executor for characterization campaigns.

    Every point runs in the calling process, in the order the sweep
    lists it.

    Parameters
    ----------
    jobs:
        Only ``1``. The keyword stays so that a caller spelling
        ``jobs=1`` still builds an engine; any other value raises
        :class:`ConfigurationError`.
    cache:
        Optional :class:`ResultCache`; ``None`` disables persistence.
    campaign_seed:
        Root of every per-task seed. Two engines with equal seeds (and
        equal grids) measure identical campaigns.
    ideal_sensors:
        Build devices with noiseless sensors (ablation/test mode).
    method:
        Measurement method for every task: ``"serial"`` or
        ``"replay"`` (batched record/replay fast path; bit-identical
        results and unchanged cache keys, so serial and replay runs
        share one cache).
    fault_plan:
        Optional :class:`repro.faults.FaultPlan`. Transient faults are
        retried per task (fresh device per attempt, so recovered points
        are bit-identical to fault-free ones); persistent failures are
        quarantined instead of aborting the campaign. If the plan can
        corrupt cache writes, the attached cache is wrapped in
        :class:`repro.faults.FaultyResultCache`.
    max_retries:
        Attempts per task after the first, retried at once; ignored
        without a plan.
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        campaign_seed: int = 0,
        ideal_sensors: bool = False,
        method: str = "serial",
        fault_plan: Optional[FaultPlan] = None,
        max_retries: int = 2,
    ) -> None:
        if not (_is_int(jobs) and jobs == 1):
            raise ConfigurationError(
                f"jobs must be 1, got {jobs!r}: a campaign runs in the calling process"
            )
        if not (_is_int(max_retries) and max_retries >= 0):
            raise ConfigurationError(f"max_retries must be an int >= 0, got {max_retries!r}")
        if not _is_int(campaign_seed):
            raise ConfigurationError(f"campaign_seed must be an int, got {campaign_seed!r}")
        self.fault_plan = fault_plan
        self.max_attempts = int(max_retries) + 1
        if (
            cache is not None
            and fault_plan is not None
            and fault_plan.has_kind("cache_corruption")
        ):
            from repro.faults.wrappers import FaultyResultCache  # deferred, see _build_device

            cache = FaultyResultCache(
                cache.root, FaultInjector(fault_plan, scope="cache")
            )
        self.cache = cache
        self.campaign_seed = int(campaign_seed)
        self.ideal_sensors = bool(ideal_sensors)
        self.method = check_method(method)
        self.stats = CampaignStats()

    # ------------------------------------------------------------------
    # task construction
    # ------------------------------------------------------------------
    def _key_fields(self, spec: DeviceSpec) -> Dict[str, Any]:
        """The cache-key fields every task on ``spec`` shares, but the app's.

        A point's key payload adds ``app``, ``point``, ``repetitions`` and
        ``seed`` (see :class:`repro.runtime.cache.SweepKeys`).
        """
        fields: Dict[str, Any] = {
            "device": CanonicalJSON.of(spec.signature()),
            "ideal_sensors": self.ideal_sensors,
        }
        # Plans whose faults are all recovered-or-fatal leave measured
        # values identical to a fault-free run, so they share its cache.
        # A silently corrupting plan (sensor outliers) must not pollute
        # that shared cache: its entries get their own key space.
        plan = self.fault_plan
        if plan is not None and not plan.result_preserving:
            fields["fault_plan"] = plan.fingerprint()
        return fields

    def _app_fingerprint(self, app: Application) -> Dict[str, Any]:
        """``app``'s identity for seeds and cache keys."""
        try:
            return app_fingerprint(app)
        except ConfigurationError:
            # Without a cache, identity is only needed for seeding;
            # fall back to the app name so ad-hoc (non-dataclass)
            # workloads still run. With a cache the ambiguity could
            # collide cache entries, so the error stands.
            if self.cache is not None:
                raise
            return {"type": type(app).__qualname__, "config": {"name": app.name}}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def characterize(
        self,
        app: Application,
        spec: DeviceSpec,
        freqs_mhz: Optional[Sequence[float]] = None,
        repetitions: int = DEFAULT_REPETITIONS,
        progress: Optional[ProgressFn] = None,
    ) -> CharacterizationResult:
        """Sweep one application (paper §5.1 protocol) through the engine."""
        return self.characterize_many(
            [app], spec, freqs_mhz=freqs_mhz, repetitions=repetitions, progress=progress
        )[0]

    def characterize_many(
        self,
        apps: Sequence[Application],
        spec: DeviceSpec,
        freqs_mhz: Optional[Sequence[float]] = None,
        repetitions: int = DEFAULT_REPETITIONS,
        progress: Optional[ProgressFn] = None,
    ) -> List[Optional[CharacterizationResult]]:
        """Sweep several applications as one campaign.

        The (app x point) tasks share one cache pass, one column pass per
        app and memory clock and one seeding pass. Results are returned
        in ``apps`` order and, because the replay fast path reproduces
        the serial noise stream exactly, are bit-identical for either
        engine ``method``.

        Under a fault plan the campaign degrades gracefully: a sweep
        point that exhausted its retry budget is dropped from its app's
        samples, and an app whose *baseline* was quarantined yields
        ``None`` in its slot. ``stats`` records what was lost
        (``quarantined_points``, ``completeness()``). Without a plan
        every slot is a real result, exactly as before.
        """
        grids = self._sweep(apps, spec, freqs_mhz, [None], repetitions, progress)
        return [None if rows is None else rows[0] for rows in grids]

    def characterize_grid(
        self,
        apps: Sequence[Application],
        spec: DeviceSpec,
        freqs_mhz: Optional[Sequence[float]] = None,
        mem_freqs_mhz: Optional[Sequence[float]] = None,
        repetitions: int = DEFAULT_REPETITIONS,
        progress: Optional[ProgressFn] = None,
    ) -> List[Optional[List[CharacterizationResult]]]:
        """Sweep the (app x f_core x f_mem) grid as one campaign.

        For each app the return slot holds one
        :class:`CharacterizationResult` per swept memory clock (ascending),
        all sharing a single baseline measured at the device's *reference*
        memory clock — so speedups and normalized energies are comparable
        across the whole 2-D grid. ``mem_freqs_mhz`` of ``None`` sweeps
        every settable memory clock.

        Points pinned at the reference memory clock are normalized to the
        legacy 1-D task identity: same seeds, same cache keys, bitwise
        identical measurements. A grid with ``mem_freqs_mhz=[reference]``
        therefore reproduces :meth:`characterize_many` exactly (the
        backward-compat invariant) and shares its cache entries.

        Quarantine semantics match :meth:`characterize_many`: a lost
        baseline voids the app's slot (``None``); lost grid points are
        dropped from their row's samples.
        """
        mem_sweep = resolve_sweep(spec.mem_freq_table, mem_freqs_mhz)
        return self._sweep(apps, spec, freqs_mhz, mem_sweep, repetitions, progress)

    def _sweep(
        self,
        apps: Sequence[Application],
        spec: DeviceSpec,
        freqs_mhz: Optional[Sequence[float]],
        mem_sweep: Sequence[Optional[float]],
        repetitions: int,
        progress: Optional[ProgressFn],
    ) -> List[Optional[List[CharacterizationResult]]]:
        """The campaign both sweeps share: build, account, run and merge.

        ``mem_sweep`` lists the memory columns. ``[None]`` is the core-only
        column, which never touches the memory clock; a pinned column at
        the reference clock keeps the same legacy task identity. Each
        app's slot holds one result per column, in ``mem_sweep`` order, or
        ``None`` when its baseline was quarantined.
        """
        if not apps:
            raise ConfigurationError("a sweep needs at least one application")
        if not (_is_int(repetitions) and repetitions >= 1):
            raise ConfigurationError(f"repetitions must be an int >= 1, got {repetitions!r}")
        repetitions = int(repetitions)
        sweep = resolve_sweep(spec.core_freqs, freqs_mhz)
        reference_mem = float(spec.mem_freq_mhz)
        grid = [(None, None)] + [
            (f, None if m == reference_mem else m) for m in mem_sweep for f in sweep
        ]

        # What the points of an app share is built once, outside the point loop.
        key_fields = None if self.cache is None else self._key_fields(spec)
        recorder = SimulatedGPU(spec) if self.method == "replay" else None
        points: List[_SweepPoint] = []
        keys: List[Optional[Tuple[str, CanonicalJSON]]] = []
        for app in apps:
            app_fp = self._app_fingerprint(app)
            seeds = TaskSeeder(self.campaign_seed, app_fp)
            sweep_keys = None if key_fields is None else SweepKeys({**key_fields, "app": app_fp})
            launches = None
            if recorder is not None:
                launches = KernelLaunchBatch.from_launches(record_launches(app, recorder))
                self.stats.launches_recorded += launches.n_launches
                self.stats.unique_launches += launches.n_unique
                self.stats.launch_evals_replay += launches.n_unique * len(grid)
                self.stats.launch_evals_serial_equivalent += (
                    launches.n_launches * len(grid) * repetitions
                )
            for freq, mem in grid:
                point = _point_key(freq, mem)
                seed = seeds.seed(point)
                points.append(_SweepPoint(app, launches, freq, mem, seed))
                keys.append(None if sweep_keys is None else sweep_keys.key(point, repetitions, seed))

        measurements = self._run_points(spec, repetitions, points, keys, progress)

        # Merge per-point measurements back into one row per memory column.
        results: List[Optional[List[CharacterizationResult]]] = []
        baseline_label, baseline_freq = baseline_descriptor(spec)
        for i, app in enumerate(apps):
            chunk = measurements[i * len(grid) : (i + 1) * len(grid)]
            baseline = chunk[0]
            if baseline is None:
                # Every synergy metric is relative to the baseline; with
                # it quarantined the app's sweep is unusable this run.
                results.append(None)
                continue
            rows: List[CharacterizationResult] = []
            for j, mem in enumerate(mem_sweep):
                sub = chunk[1 + j * len(sweep) : 1 + (j + 1) * len(sweep)]
                rows.append(
                    CharacterizationResult(
                        app_name=app.name,
                        device_name=spec.name,
                        baseline_label=baseline_label,
                        baseline_freq_mhz=baseline_freq,
                        baseline_time_s=baseline.time_s,
                        baseline_energy_j=baseline.energy_j,
                        samples=[m.to_sample() for m in sub if m is not None],
                        mem_freq_mhz=mem,
                    )
                )
            results.append(rows)
        return results

    def _run_points(
        self,
        spec: DeviceSpec,
        repetitions: int,
        points: List[_SweepPoint],
        keys: List[Optional[Tuple[str, CanonicalJSON]]],
        progress: Optional[ProgressFn],
    ) -> List[Optional[PointMeasurement]]:
        total = len(points)
        self.stats.tasks_total += total
        done = 0
        results: List[Optional[PointMeasurement]] = [None] * total
        pending: List[int] = []

        # Phase 1: replay every cached point.
        for i, point in enumerate(points):
            cached = self._cache_get(point, repetitions, keys[i])
            if cached is not None:
                results[i] = cached
                done += 1
                if progress is not None:
                    progress(
                        done,
                        total,
                        _point_label(point.app.name, point.freq_mhz, point.mem_freq_mhz),
                        True,
                    )
            else:
                pending.append(i)

        # Phase 2: build the missed points' tasks, after the lookups, so a
        # warm point evaluates and derives nothing; then run them in sweep
        # order.
        tasks = self._tasks(spec, repetitions, [points[i] for i in pending])
        for i, task in zip(pending, tasks):
            results[i] = self._after_execute(task, keys[i], execute_task_resilient(task))
            done += 1
            if progress is not None:
                progress(done, total, task.label, False)

        if self.fault_plan is None:
            assert all(m is not None for m in results)
        return results

    def _tasks(
        self, spec: DeviceSpec, repetitions: int, points: List[_SweepPoint]
    ) -> List[MeasurementTask]:
        """One task per missed point, each carrying its columns and streams.

        A replay engine evaluates every app's missed clocks at one memory
        clock in one column pass (:func:`_sweep_columns`), and every
        engine derives the sensor streams of all the missed points in one
        seeding pass (:func:`repro.synergy.api.sensor_stream_words`),
        bitwise the streams each task's seed spawns.
        """
        if not points:
            return []
        if self.method == "replay":
            columns = _sweep_columns(spec, points)
        else:
            columns = [None] * len(points)
        streams = sensor_stream_words([point.seed for point in points])
        return [
            MeasurementTask(
                app=point.app,
                spec=spec,
                freq_mhz=point.freq_mhz,
                repetitions=repetitions,
                seed=point.seed,
                ideal_sensors=self.ideal_sensors,
                method=self.method,
                fault_plan=self.fault_plan,
                max_attempts=self.max_attempts,
                mem_freq_mhz=point.mem_freq_mhz,
                launches=point.launches,
                columns=column,
                streams=words,
            )
            for point, column, words in zip(points, columns, streams)
        ]

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def _cache_get(
        self,
        point: _SweepPoint,
        repetitions: int,
        key: Optional[Tuple[str, CanonicalJSON]],
    ) -> Optional[PointMeasurement]:
        """``point``'s cached measurement, or ``None`` to compute it.

        An entry whose value passed the cache's digest check but is not a
        measurement of ``point``'s shape counts as a miss too: the point's
        task runs and its put overwrites the entry.
        """
        if key is None:
            return None
        record = self.cache.get(key[0])
        try:
            measurement = None if record is None else PointMeasurement.from_record(record)
        except DatasetError:
            measurement = None
        if measurement is None or not measurement.fits(
            point.freq_mhz, point.mem_freq_mhz, repetitions
        ):
            self.stats.cache_misses += 1
            return None
        self.stats.cache_hits += 1
        self.stats.cache_bytes_read = self.cache.stats.bytes_read
        return measurement

    def _after_execute(
        self,
        task: MeasurementTask,
        key: Optional[Tuple[str, CanonicalJSON]],
        outcome: TaskOutcome,
    ) -> Optional[PointMeasurement]:
        """Account for one finished task; persist it unless quarantined."""
        self.stats.executed += 1
        self.stats.retries += outcome.attempts - 1
        self.stats.faults_injected += outcome.faults
        if outcome.quarantined:
            self.stats.quarantined += 1
            self.stats.quarantined_points.append(task.label)
            return None
        measurement = outcome.measurement
        if key is not None:
            self.cache.put(key[0], measurement.as_record(), key[1])
            self.stats.cache_bytes_written = self.cache.stats.bytes_written
        return measurement
