"""Roofline-style kernel timing model.

The execution time of a kernel launch is bounded by three mechanisms,
and the model takes (a smooth approximation of) the max of the three:

``t_comp``
    compute/issue throughput: total issue cycles divided by the usable
    parallel width times the core frequency — the only component that
    scales with the core clock;
``t_bw``
    DRAM bandwidth: total global traffic divided by peak bandwidth —
    independent of the core clock (single memory frequency, paper §5.1);
``t_lat``
    memory latency: for launches with too few threads to saturate the
    memory system's outstanding-request window (``max_mlp``), each
    thread's dependent-access chain of un-hidden latency sets a floor
    that is independent of *both* clocks.

A fixed per-launch overhead (``launch_overhead_us``) models driver and
scheduling cost; it dominates for tiny grids, which is why the paper's
smallest Cronos inputs see nearly no speedup from over-clocking.

The smooth max (a p-norm with ``p = 6``) keeps time differentiable at
regime boundaries and yields the few-percent residual frequency
sensitivity the paper observes even for memory-bound inputs (Fig. 3a).

Two evaluation paths share the same arithmetic:

- :meth:`RooflineTimingModel.time` — one launch at one frequency, in
  plain float math (the hot path of :meth:`SimulatedGPU.launch`);
- :meth:`RooflineTimingModel.time_batch` — a
  :class:`repro.kernels.batch.KernelLaunchBatch` against a frequency
  vector, returning every field as a ``(n_unique, n_freqs)`` array.

The two paths are kept **bit-identical**: every formula is written with
the same operation order, sixth powers use an exact multiplication
chain, and the p-th root and exponential go through the NumPy ufuncs in
both paths (``x ** y`` on Python floats rounds differently from the
vectorized ufunc, so it is avoided). The batched replay engine in
:mod:`repro.synergy.replay` depends on this equivalence; see
``docs/perf.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import KernelError
from repro.hw.specs import DeviceSpec
from repro.kernels.batch import KernelLaunchBatch
from repro.kernels.ir import FEATURE_NAMES, OP_CYCLE_COSTS, KernelLaunch

__all__ = ["KernelTiming", "BatchTiming", "RooflineTimingModel"]

#: Exponent of the smooth-max combination of the three roofline times.
SMOOTH_MAX_P = 6.0

#: Reciprocal exponent of the smooth max (shared by both paths).
_INV_P = 1.0 / SMOOTH_MAX_P

#: Column of ``global_access`` in the batch feature matrix.
_GLOBAL_ACCESS_COL = FEATURE_NAMES.index("global_access")


def _pow6(r):
    """Sixth power as an exact multiplication chain.

    ``r ** 6.0`` rounds differently between Python floats, NumPy scalars
    and NumPy arrays; three multiplications are correctly rounded the
    same way everywhere, keeping the scalar and batched paths
    bit-identical.
    """
    r2 = r * r
    return (r2 * r2) * r2


@dataclass(frozen=True)
class KernelTiming:
    """Breakdown of one kernel launch's simulated execution time.

    Attributes
    ----------
    time_s:
        Total wall time including launch overhead.
    exec_s:
        On-device execution time (excludes launch overhead).
    t_comp_s, t_bw_s, t_lat_s:
        The three roofline bounds.
    u_comp, u_mem:
        Compute-pipe and memory-system busy *time* fractions during
        ``exec_s``; feed the power model.
    width_util:
        Fraction of the device's compute width actually occupied,
        ``1 - exp(-threads / (3 n_cores))``: a kernel with few threads
        keeps most SMs idle no matter how busy its own pipes are. The
        saturation is smooth and deliberately slow — scheduling
        imbalance, partial waves and divergence keep real devices from
        drawing full dynamic power until well past one thread per lane.
    occupancy:
        Resident-thread occupancy in ``[0, 1]``.
    regime:
        Name of the binding bound: ``"compute"``, ``"bandwidth"``,
        ``"latency"`` or ``"overhead"``.
    """

    time_s: float
    exec_s: float
    overhead_s: float
    t_comp_s: float
    t_bw_s: float
    t_lat_s: float
    u_comp: float
    u_mem: float
    width_util: float
    occupancy: float
    regime: str

    def effective_u_comp(self, active_idle_frac: float) -> float:
        """Compute utilization the power model sees.

        While the compute pipes are busy (time fraction ``u_comp``), the
        occupied width draws full dynamic power and even idle SMs draw the
        fetch/scheduler floor ``active_idle_frac``; while the kernel
        stalls, the whole compute domain is quiescent.
        """
        floor = active_idle_frac
        return self.u_comp * (floor + (1.0 - floor) * self.width_util)


@dataclass(frozen=True)
class BatchTiming:
    """Timing-model output for a launch batch against a frequency vector.

    Frequency-dependent fields are ``(n_unique, n_freqs)`` matrices;
    ``t_bw_s``, ``t_lat_s``, ``width_util`` and ``occupancy`` are
    frequency-independent and stored once per unique launch.
    ``overhead_s`` is a device constant. Every element is bit-identical
    to the corresponding scalar :meth:`RooflineTimingModel.time` call.
    """

    freqs_mhz: np.ndarray
    time_s: np.ndarray
    exec_s: np.ndarray
    overhead_s: float
    t_comp_s: np.ndarray
    t_bw_s: np.ndarray
    t_lat_s: np.ndarray
    u_comp: np.ndarray
    u_mem: np.ndarray
    width_util: np.ndarray
    occupancy: np.ndarray
    regime: np.ndarray

    @property
    def n_unique(self) -> int:
        """Number of unique launches on the first axis."""
        return int(self.time_s.shape[0])

    @property
    def n_freqs(self) -> int:
        """Number of frequencies on the second axis."""
        return int(self.time_s.shape[1])

    def effective_u_comp(self, active_idle_frac: float) -> np.ndarray:
        """Array twin of :meth:`KernelTiming.effective_u_comp`, element-wise bit-identical."""
        floor = active_idle_frac
        return self.u_comp * (floor + (1.0 - floor) * self.width_util[:, None])


class RooflineTimingModel:
    """Maps a :class:`KernelLaunch` and a core frequency to a :class:`KernelTiming`.

    Parameters
    ----------
    spec:
        Device description supplying widths, bandwidth, latency and
        overhead constants.
    op_costs:
        Per-operation issue-cycle costs; defaults to
        :data:`repro.kernels.ir.OP_CYCLE_COSTS`.
    """

    def __init__(self, spec: DeviceSpec, op_costs: Mapping[str, float] = OP_CYCLE_COSTS):
        self.spec = spec
        self.op_costs = {**op_costs, **spec.op_cost_overrides}

    def _mem_bandwidth_bytes_s(self, mem_mhz: float | None) -> float:
        """Peak bandwidth at the given memory clock.

        Bandwidth scales linearly with the HBM clock. When ``mem_mhz`` is
        None or equals the reference clock the spec's quoted bandwidth is
        returned *unmodified* (not multiplied by a computed ratio), so the
        legacy core-only path stays bitwise identical. Memory latency is
        deliberately held constant across memory clocks: un-hidden DRAM
        latency is dominated by the fixed-time row/column access, not the
        interface clock.
        """
        bw = self.spec.mem_bandwidth_bytes_s
        if mem_mhz is None:
            return bw
        mem_mhz = float(mem_mhz)
        ref = self.spec.mem_freq_mhz
        if mem_mhz == ref:
            return bw
        lo = self.spec.mem_freq_table.min_mhz
        hi = self.spec.mem_freq_table.max_mhz
        if not (lo - 1e-6 <= mem_mhz <= hi + 1e-6):
            raise KernelError(
                f"memory frequency {mem_mhz} MHz outside device range [{lo}, {hi}]"
            )
        return bw * (mem_mhz / ref)

    # ------------------------------------------------------------------
    # individual bounds
    # ------------------------------------------------------------------
    def compute_time_s(self, launch: KernelLaunch, core_mhz: float) -> float:
        """Compute/issue-throughput bound at ``core_mhz`` (scales ~1/f)."""
        cpt = launch.spec.cycles_per_thread(self.op_costs) * launch.work_iterations
        width = min(launch.threads, self.spec.n_cores)
        rate_cycles_s = width * self.spec.ipc * core_mhz * 1e6
        return cpt * launch.threads / rate_cycles_s

    def bandwidth_time_s(self, launch: KernelLaunch, mem_mhz: float | None = None) -> float:
        """DRAM bandwidth bound (independent of the core clock, ~1/f_mem)."""
        traffic = launch.total_bytes_global(self.spec.bytes_per_access)
        return traffic / self._mem_bandwidth_bytes_s(mem_mhz)

    def latency_time_s(self, launch: KernelLaunch) -> float:
        """Memory-latency bound for launches below the MLP window."""
        n_acc_thread = launch.spec.global_access * launch.work_iterations
        if n_acc_thread <= 0:
            return 0.0
        lat_s = self.spec.mem_latency_ns * 1e-9
        # Each thread issues n_acc accesses of which per_thread_mlp overlap
        # within its own instruction window; across threads, up to max_mlp
        # accesses overlap fully, beyond that they serialize (at which
        # point the bandwidth bound takes over as the binding constraint).
        serial_factor = max(1.0, launch.threads / self.spec.max_mlp)
        return n_acc_thread * lat_s * serial_factor / self.spec.per_thread_mlp

    # ------------------------------------------------------------------
    # combined model
    # ------------------------------------------------------------------
    def occupancy(self, launch: KernelLaunch) -> float:
        """Fraction of the device's resident-thread capacity used."""
        return min(1.0, launch.threads / self.spec.max_resident_threads)

    def _check_freq(self, core_mhz: float) -> float:
        core_mhz = float(core_mhz)
        lo, hi = self.spec.core_freqs.min_mhz, self.spec.core_freqs.max_mhz
        if not (lo - 1e-6 <= core_mhz <= hi + 1e-6):
            raise KernelError(
                f"core frequency {core_mhz} MHz outside device range [{lo}, {hi}]"
            )
        return core_mhz

    def time(
        self, launch: KernelLaunch, core_mhz: float, mem_mhz: float | None = None
    ) -> KernelTiming:
        """Evaluate the full timing model at ``(core_mhz, mem_mhz)``.

        ``mem_mhz`` of None means the reference memory clock and is
        bitwise identical to the pre-v2 single-memory-frequency model.
        """
        if not isinstance(launch, KernelLaunch):
            raise KernelError(f"expected KernelLaunch, got {type(launch).__name__}")
        core_mhz = self._check_freq(core_mhz)

        t_comp = self.compute_time_s(launch, core_mhz)
        t_bw = self.bandwidth_time_s(launch, mem_mhz)
        t_lat = self.latency_time_s(launch)

        # Smooth max: sum of p-th powers, p-th root. Scale by the largest
        # component first for numerical stability. Zero components add an
        # exact 0.0 to the sum, so no filtering is needed.
        peak = t_comp
        if t_bw > peak:
            peak = t_bw
        if t_lat > peak:
            peak = t_lat
        if peak <= 0.0:
            raise KernelError(f"kernel {launch.spec.name!r} has no work")
        s = (_pow6(t_comp / peak) + _pow6(t_bw / peak)) + _pow6(t_lat / peak)
        exec_s = peak * float(np.power(s, _INV_P))

        overhead_s = self.spec.launch_overhead_us * 1e-6
        time_s = exec_s + overhead_s

        u_comp = min(1.0, t_comp / exec_s)
        # During latency-bound phases the DRAM pins toggle rarely; weight
        # the latency time by a small activity factor when estimating the
        # memory system's busy fraction.
        u_mem = min(1.0, max(t_bw, 0.08 * t_lat) / exec_s)

        # First-max selection, same tie-breaking as np.argmax.
        if overhead_s > exec_s:
            regime = "overhead"
        elif t_comp >= t_bw and t_comp >= t_lat:
            regime = "compute"
        elif t_bw >= t_lat:
            regime = "bandwidth"
        else:
            regime = "latency"

        return KernelTiming(
            time_s=time_s,
            exec_s=exec_s,
            overhead_s=overhead_s,
            t_comp_s=t_comp,
            t_bw_s=t_bw,
            t_lat_s=t_lat,
            u_comp=u_comp,
            u_mem=u_mem,
            width_util=float(1.0 - np.exp(-launch.threads / (3.0 * self.spec.n_cores))),
            occupancy=self.occupancy(launch),
            regime=regime,
        )

    def time_batch(
        self,
        batch: KernelLaunchBatch,
        freqs_mhz: Sequence[float],
        mem_mhz: float | None = None,
    ) -> BatchTiming:
        """Evaluate every unique launch in ``batch`` at every core frequency.

        Returns a :class:`BatchTiming` whose ``(i, j)`` element is
        bit-identical to ``self.time(batch.unique[i], freqs_mhz[j], mem_mhz)``.
        ``mem_mhz`` is a single pinned memory clock for the whole batch.
        Validation (frequency range, launch types) is hoisted out of the
        inner arithmetic: launches were checked by the batch constructor
        and the frequency vector is checked once here.
        """
        freqs = np.asarray([float(f) for f in freqs_mhz], dtype=float)
        if freqs.ndim != 1 or freqs.size == 0:
            raise KernelError("time_batch needs a non-empty 1-D frequency list")
        for f in freqs:
            self._check_freq(float(f))

        spec = self.spec
        n = batch.n_unique
        threads_f = batch.threads.astype(float)
        wi = batch.work_iterations

        # cycles_per_thread, accumulated in FEATURE_NAMES order so the
        # summation order matches the scalar Python sum().
        cpt = np.zeros(n, dtype=float)
        for col, feat in enumerate(FEATURE_NAMES):
            cpt = cpt + batch.features[:, col] * self.op_costs[feat]
        cpt = cpt * wi

        # t_comp: (cpt * threads) / (((width * ipc) * f) * 1e6)
        width = np.minimum(batch.threads, spec.n_cores).astype(float)
        rate = ((width * spec.ipc)[:, None] * freqs[None, :]) * 1e6
        t_comp = (cpt * threads_f)[:, None] / rate

        # t_bw: (((global_access * wi) * threads) * bytes) / bandwidth;
        # the divisor is the same scalar the scalar path divides by, so
        # the two paths stay bit-identical at every memory clock.
        ga = batch.features[:, _GLOBAL_ACCESS_COL]
        t_bw = (((ga * wi) * threads_f) * spec.bytes_per_access) / self._mem_bandwidth_bytes_s(
            mem_mhz
        )

        # t_lat: ((n_acc * lat) * serial_factor) / per_thread_mlp, 0 if no accesses
        n_acc = ga * wi
        lat_s = spec.mem_latency_ns * 1e-9
        serial_factor = np.maximum(1.0, threads_f / spec.max_mlp)
        t_lat = np.where(
            n_acc <= 0, 0.0, ((n_acc * lat_s) * serial_factor) / spec.per_thread_mlp
        )

        t_bw_col = t_bw[:, None]
        t_lat_col = t_lat[:, None]
        peak = np.maximum(np.maximum(t_comp, t_bw_col), t_lat_col)
        if n and np.any(peak[:, 0] <= 0.0):
            i = int(np.flatnonzero(peak[:, 0] <= 0.0)[0])
            raise KernelError(f"kernel {batch.unique[i].spec.name!r} has no work")
        s = (_pow6(t_comp / peak) + _pow6(t_bw_col / peak)) + _pow6(t_lat_col / peak)
        exec_s = peak * np.power(s, _INV_P)

        overhead_s = spec.launch_overhead_us * 1e-6
        time_s = exec_s + overhead_s

        u_comp = np.minimum(1.0, t_comp / exec_s)
        u_mem = np.minimum(1.0, np.maximum(t_bw_col, 0.08 * t_lat_col) / exec_s)

        regime = np.where(
            overhead_s > exec_s,
            "overhead",
            np.where(
                (t_comp >= t_bw_col) & (t_comp >= t_lat_col),
                "compute",
                np.where(t_bw_col >= t_lat_col, "bandwidth", "latency"),
            ),
        )

        return BatchTiming(
            freqs_mhz=freqs,
            time_s=time_s,
            exec_s=exec_s,
            overhead_s=overhead_s,
            t_comp_s=t_comp,
            t_bw_s=t_bw,
            t_lat_s=t_lat,
            u_comp=u_comp,
            u_mem=u_mem,
            width_util=1.0 - np.exp(-batch.threads / (3.0 * spec.n_cores)),
            occupancy=np.minimum(1.0, threads_f / spec.max_resident_threads),
            regime=regime,
        )

    def is_compute_bound(self, launch: KernelLaunch, core_mhz: float | None = None) -> bool:
        """True when the compute bound dominates at ``core_mhz`` (default: top bin)."""
        if core_mhz is None:
            core_mhz = self.spec.core_freqs.max_mhz
        t = self.time(launch, core_mhz)
        return t.t_comp_s >= max(t.t_bw_s, t.t_lat_s)
