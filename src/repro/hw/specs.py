"""Device specifications for the simulated GPUs.

A :class:`DeviceSpec` bundles everything the timing and power models need:
compute width, memory bandwidth, latency characteristics, the DVFS
frequency table, the voltage/frequency curve, and the power-model
coefficients. Two factory functions build specs that mimic the devices
used in the paper: NVIDIA V100 (SXM2 32 GB) and AMD MI100.

The numeric values are calibrated so that the *shape* of the paper's
characterization figures is reproduced (see DESIGN.md §5); they are not a
claim about the exact silicon.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Mapping, Optional

from repro.hw.dvfs import FrequencyTable, VoltageCurve
from repro.utils.validation import check_positive

__all__ = [
    "DeviceSpec",
    "make_v100_spec",
    "make_mi100_spec",
    "make_intel_max_spec",
    "make_a100_spec",
    "make_h100_spec",
    "make_mi250_spec",
    "scale_spec",
]


@dataclass(frozen=True)
class DeviceSpec:
    """Immutable description of a simulated GPU.

    Attributes
    ----------
    name:
        Human-readable device name (e.g. ``"NVIDIA V100"``).
    vendor:
        ``"nvidia"``, ``"amd"`` or ``"intel"``; selects default-frequency
        semantics (NVIDIA exposes a default application clock; AMD uses an
        automatic performance governor).
    n_cores:
        Total scalar cores (SMs x cores/SM), used as the compute width.
    ipc:
        Average sustained instructions-per-clock per core (captures
        achieved efficiency of the software stack on this device).
    max_resident_threads:
        Maximum threads resident on the device at once; sets occupancy.
    mem_bandwidth_gbs:
        Peak global-memory bandwidth in GB/s at the (single) memory
        frequency.
    mem_latency_ns:
        Un-hidden global-memory access latency in nanoseconds.
    max_mlp:
        Maximum memory-level parallelism: outstanding accesses the memory
        system can overlap; below this many concurrent threads a kernel is
        latency-bound.
    per_thread_mlp:
        Independent outstanding accesses a single thread's instruction
        window sustains; divides the per-thread dependent-latency chain
        (a few loads per loop iteration overlap even within one thread).
    active_idle_frac:
        Floor on the effective compute utilization while *any* kernel is
        resident: SMs keep clocking (instruction fetch, scheduler, clock
        distribution) even when their pipes stall, so a resident kernel
        draws this fraction of the peak dynamic power regardless of how
        little work it issues.
    op_cost_overrides:
        Per-device overrides of the issue-cycle cost table (e.g. the
        MI100's special-function throughput is relatively weaker than the
        V100's, which is why the paper measures LiGen — trig-heavy — as
        disproportionately slower there, Figs 6-9).
    launch_overhead_us:
        Fixed host-side kernel launch cost in microseconds.
    core_freqs:
        The supported core-frequency table (MHz).
    mem_freq_mhz:
        The single supported memory frequency (MHz).
    voltage:
        Core voltage/frequency curve.
    p_static_w:
        Frequency-independent baseline power (leakage, board, HBM refresh).
    p_clock_w:
        Clock-tree power at maximum core frequency; scales linearly with
        frequency even when the device is idle.
    p_core_dyn_w:
        Maximum dynamic compute power at full utilization, peak frequency
        and peak voltage.
    p_mem_dyn_w:
        Maximum dynamic memory-system power at full bandwidth utilization.
    mem_freq_coupling:
        Fraction of the memory-system dynamic power that scales with the
        *core* clock (L2, crossbar and memory controllers share the core
        domain on real GPUs); the rest is tied to the fixed HBM clock.
        This coupling is what lets memory-bound kernels save real energy
        when the core is down-clocked (paper Fig. 4b).
    bytes_per_access:
        Bytes moved per counted global/local access (we count in 8-byte
        double words by default).
    """

    name: str
    vendor: str
    n_cores: int
    ipc: float
    max_resident_threads: int
    mem_bandwidth_gbs: float
    mem_latency_ns: float
    max_mlp: int
    launch_overhead_us: float
    core_freqs: FrequencyTable
    mem_freq_mhz: float
    voltage: VoltageCurve
    p_static_w: float
    p_clock_w: float
    p_core_dyn_w: float
    p_mem_dyn_w: float
    mem_freq_coupling: float = 0.5
    bytes_per_access: float = 8.0
    per_thread_mlp: float = 6.0
    active_idle_frac: float = 0.12
    op_cost_overrides: Mapping[str, float] = field(default_factory=dict)
    # Memory-frequency domain (schema v2). ``mem_freqs`` lists the settable
    # HBM clocks; ``mem_freq_mhz`` stays the *reference* clock at which
    # ``mem_bandwidth_gbs`` and ``p_mem_dyn_w`` are quoted (and the boot
    # clock). Legacy v1 specs leave both at None: the device then exposes a
    # single-entry memory table and every model path is bit-identical to
    # the core-frequency-only code.
    mem_freqs: Optional[FrequencyTable] = None
    mem_voltage: Optional[VoltageCurve] = None

    def __post_init__(self) -> None:
        check_positive(self.n_cores, "n_cores")
        check_positive(self.ipc, "ipc")
        check_positive(self.max_resident_threads, "max_resident_threads")
        check_positive(self.mem_bandwidth_gbs, "mem_bandwidth_gbs")
        check_positive(self.mem_latency_ns, "mem_latency_ns")
        check_positive(self.max_mlp, "max_mlp")
        check_positive(self.mem_freq_mhz, "mem_freq_mhz")
        check_positive(self.p_static_w, "p_static_w")
        check_positive(self.bytes_per_access, "bytes_per_access")
        if self.launch_overhead_us < 0:
            raise ValueError("launch_overhead_us must be >= 0")
        for attr in ("p_clock_w", "p_core_dyn_w", "p_mem_dyn_w"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be >= 0")
        if not (0.0 <= self.mem_freq_coupling <= 1.0):
            raise ValueError("mem_freq_coupling must lie in [0, 1]")
        check_positive(self.per_thread_mlp, "per_thread_mlp")
        if not (0.0 <= self.active_idle_frac <= 1.0):
            raise ValueError("active_idle_frac must lie in [0, 1]")
        for op, cost in self.op_cost_overrides.items():
            if cost <= 0:
                raise ValueError(f"op_cost_overrides[{op!r}] must be positive")
        if self.vendor not in ("nvidia", "amd", "intel"):
            raise ValueError(f"unknown vendor {self.vendor!r}")
        if self.mem_voltage is not None and self.mem_freqs is None:
            raise ValueError("mem_voltage requires a mem_freqs table")
        if self.mem_freqs is not None and self.mem_freq_mhz not in self.mem_freqs:
            raise ValueError(
                "mem_freq_mhz (the reference memory clock) must be an entry "
                "of the mem_freqs table"
            )

    @property
    def peak_flops_at(self) -> float:
        """Peak single-issue op throughput (ops/s) at max core frequency."""
        return self.n_cores * self.ipc * self.core_freqs.max_mhz * 1e6

    @property
    def mem_bandwidth_bytes_s(self) -> float:
        """Peak memory bandwidth in bytes/second."""
        return self.mem_bandwidth_gbs * 1e9

    @property
    def has_default_frequency(self) -> bool:
        """True if the device exposes an explicit default application clock.

        NVIDIA (NVML) and Intel (Level Zero) expose settable default
        clocks; AMD (ROCm-SMI) uses performance levels with an automatic
        governor (paper §3.1.1).
        """
        return self.vendor in ("nvidia", "intel")

    @property
    def default_clock_mhz(self) -> Optional[float]:
        """The core clock :meth:`SimulatedGPU.reset_frequency` pins, if any.

        The table's declared default on devices with
        :attr:`has_default_frequency`; ``None`` on auto-governed devices,
        whose baseline is the governor even when their table declares a
        default clock. Every baseline-clock choice keys on this.
        """
        return self.core_freqs.default_mhz if self.has_default_frequency else None

    @property
    def tdp_w(self) -> float:
        """Approximate board power at full load and peak frequency."""
        return self.p_static_w + self.p_clock_w + self.p_core_dyn_w + self.p_mem_dyn_w

    @property
    def mem_freq_table(self) -> FrequencyTable:
        """The settable memory-frequency table.

        Legacy (v1) specs with no ``mem_freqs`` table expose a single-entry
        table pinned at ``mem_freq_mhz``: :meth:`FrequencyTable.snap` on a
        single-entry table has a zero half-bin, so only the reference clock
        is accepted — exactly the pre-v2 behavior.
        """
        if self.mem_freqs is not None:
            return self.mem_freqs
        return FrequencyTable((self.mem_freq_mhz,), default_mhz=self.mem_freq_mhz)

    @property
    def has_memory_dvfs(self) -> bool:
        """True if more than one memory frequency is settable."""
        return self.mem_freqs is not None and len(self.mem_freqs.freqs_mhz) > 1

    def signature(self) -> Dict[str, object]:
        """Stable JSON-able description of every model-relevant field.

        The campaign result cache keys entries by this signature: any
        change to the device model (a recalibrated coefficient, a new
        frequency table, a future spec field) changes the signature and
        therefore invalidates exactly the cached measurements taken on
        the old device. Iterates ``dataclasses.fields`` so new fields can
        never be forgotten.
        """
        sig: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, FrequencyTable):
                sig[f.name] = {
                    "freqs_mhz": [float(x) for x in value.freqs_mhz],
                    "default_mhz": value.default_mhz,
                }
            elif isinstance(value, VoltageCurve):
                sig[f.name] = {
                    k: float(v) for k, v in asdict(value).items()
                }
            elif isinstance(value, Mapping):
                sig[f.name] = {str(k): float(value[k]) for k in sorted(value)}
            else:
                sig[f.name] = value
        return sig


def make_v100_spec() -> DeviceSpec:
    """Spec mimicking the paper's NVIDIA V100 (SXM2, 32 GB HBM2).

    196 core frequencies from 135 to 1597 MHz (7.5 MHz steps), one memory
    frequency at 1107 MHz — exactly the table reported in the paper's
    experimental setup (§5.1). The default application clock is set to
    1282 MHz so that a perfectly compute-bound kernel gains ~25% speedup at
    the top bin, matching Fig. 1a.
    """
    freqs = FrequencyTable.linear(135.0, 1597.0, 196, default_mhz=1282.0)
    voltage = VoltageCurve(
        v_min=0.712,
        v_max=1.100,
        f_min_mhz=135.0,
        f_knee_mhz=900.0,
        f_max_mhz=1597.0,
        exponent=2.0,
    )
    return DeviceSpec(
        name="NVIDIA V100",
        vendor="nvidia",
        n_cores=5120,
        ipc=0.78,
        max_resident_threads=163840,  # 80 SMs x 2048 threads
        mem_bandwidth_gbs=900.0,
        mem_latency_ns=425.0,
        # Little's law: sustaining 900 GB/s of 8-byte words at 425 ns needs
        # ~48k accesses in flight = max_mlp x per_thread_mlp (8000 x 6);
        # launches below ~8k threads are latency-bound.
        max_mlp=8000,
        launch_overhead_us=2.5,
        core_freqs=freqs,
        mem_freq_mhz=1107.0,
        voltage=voltage,
        p_static_w=41.0,
        p_clock_w=5.0,
        p_core_dyn_w=250.0,
        p_mem_dyn_w=60.0,
        mem_freq_coupling=0.55,
        per_thread_mlp=6.0,
    )


def make_mi100_spec() -> DeviceSpec:
    """Spec mimicking the paper's AMD MI100 (32 GB HBM2).

    AMD GPUs expose performance levels rather than a default clock; the
    simulated device defaults to an automatic governor (see
    :class:`repro.hw.governor.AutoGovernor`). The achieved IPC is set lower
    than the V100's, reflecting the paper's observation that both time and
    energy are higher on the MI100 for the same SYCL workloads (Figs 6-9).
    """
    freqs = FrequencyTable.linear(300.0, 1502.0, 110, default_mhz=None)
    voltage = VoltageCurve(
        v_min=0.731,
        v_max=1.118,
        f_min_mhz=300.0,
        f_knee_mhz=850.0,
        f_max_mhz=1502.0,
        exponent=2.0,
    )
    return DeviceSpec(
        name="AMD MI100",
        vendor="amd",
        n_cores=7680,
        ipc=0.42,
        max_resident_threads=163840,
        mem_bandwidth_gbs=1228.0,
        mem_latency_ns=510.0,
        # 1228 GB/s x 510 ns / 8 B ~ 78k in-flight = 19500 x 4.
        max_mlp=19500,
        launch_overhead_us=4.0,
        core_freqs=freqs,
        mem_freq_mhz=1200.0,
        voltage=voltage,
        p_static_w=52.0,
        p_clock_w=66.0,
        p_core_dyn_w=185.0,
        p_mem_dyn_w=70.0,
        mem_freq_coupling=0.5,
        per_thread_mlp=4.0,
        # CDNA1 gates idle CUs less aggressively than Volta: partially
        # filled devices still draw a large share of dynamic power, which
        # is why the paper sees real down-clock savings even for small
        # LiGen batches on the MI100 (Fig. 10c) but not on the V100.
        active_idle_frac=0.30,
        op_cost_overrides={"special_fn": 36.0},
    )


def make_intel_max_spec() -> DeviceSpec:
    """Spec mimicking an Intel Data Center GPU Max 1100 (Ponte Vecchio).

    The paper's SYnergy layer also drives Intel GPUs through Level Zero;
    this spec extends the platform to the third vendor. 56 Xe cores (448
    vector engines x 16 lanes), HBM2e at ~1.2 TB/s, 300 W board power,
    core clocks 600-1550 MHz with a settable default.
    """
    freqs = FrequencyTable.linear(600.0, 1550.0, 96, default_mhz=1300.0)
    voltage = VoltageCurve(
        v_min=0.75,
        v_max=1.05,
        f_min_mhz=600.0,
        f_knee_mhz=1000.0,
        f_max_mhz=1550.0,
        exponent=2.0,
    )
    return DeviceSpec(
        name="Intel Max 1100",
        vendor="intel",
        n_cores=7168,
        ipc=0.52,
        max_resident_threads=131072,
        mem_bandwidth_gbs=1229.0,
        mem_latency_ns=460.0,
        max_mlp=11800,  # 1229 GB/s x 460 ns / 8 B ~ 70.7k = 11800 x 6
        launch_overhead_us=3.5,
        core_freqs=freqs,
        mem_freq_mhz=1565.0,
        voltage=voltage,
        p_static_w=48.0,
        p_clock_w=18.0,
        p_core_dyn_w=200.0,
        p_mem_dyn_w=70.0,
        mem_freq_coupling=0.5,
        per_thread_mlp=6.0,
        active_idle_frac=0.15,
    )


def make_a100_spec() -> DeviceSpec:
    """Spec mimicking an NVIDIA A100 (SXM4, 80 GB HBM2e) with memory DVFS.

    The first schema-v2 device: besides the core table (210-1410 MHz) it
    exposes four settable HBM clocks, 810-1215 MHz, with the reference
    (boot) clock at the top bin. Bandwidth scales linearly with the HBM
    clock while the HBM+PHY dynamic power follows the memory voltage
    curve, so for bandwidth-bound kernels the energy optimum moves into
    the interior of the (f_core, f_mem) plane (DSO, arxiv 2407.13096).
    """
    freqs = FrequencyTable.linear(210.0, 1410.0, 161, default_mhz=1095.0)
    voltage = VoltageCurve(
        v_min=0.70,
        v_max=1.08,
        f_min_mhz=210.0,
        f_knee_mhz=800.0,
        f_max_mhz=1410.0,
        exponent=2.0,
    )
    mem_freqs = FrequencyTable.linear(810.0, 1215.0, 4, default_mhz=1215.0)
    mem_voltage = VoltageCurve(
        v_min=0.80,
        v_max=1.20,
        f_min_mhz=810.0,
        f_knee_mhz=810.0,
        f_max_mhz=1215.0,
        exponent=1.0,
    )
    return DeviceSpec(
        name="NVIDIA A100",
        vendor="nvidia",
        n_cores=6912,
        ipc=0.75,
        max_resident_threads=221184,  # 108 SMs x 2048 threads
        mem_bandwidth_gbs=2039.0,
        mem_latency_ns=470.0,
        # 2039 GB/s x 470 ns / 8 B ~ 120k in-flight = 20000 x 6.
        max_mlp=20000,
        launch_overhead_us=2.2,
        core_freqs=freqs,
        mem_freq_mhz=1215.0,
        voltage=voltage,
        p_static_w=55.0,
        p_clock_w=8.0,
        p_core_dyn_w=195.0,
        p_mem_dyn_w=140.0,
        mem_freq_coupling=0.35,
        per_thread_mlp=6.0,
        mem_freqs=mem_freqs,
        mem_voltage=mem_voltage,
    )


def make_h100_spec() -> DeviceSpec:
    """Spec mimicking an NVIDIA H100 (SXM5, 80 GB HBM3) with memory DVFS.

    Larger compute-to-bandwidth ratio than the A100 and a wider HBM3
    clock range (1593-2619 MHz); memory power is a bigger slice of the
    700 W board budget, which widens the 2-D sweet spot for
    bandwidth-bound kernels.
    """
    freqs = FrequencyTable.linear(510.0, 1980.0, 99, default_mhz=1695.0)
    voltage = VoltageCurve(
        v_min=0.70,
        v_max=1.10,
        f_min_mhz=510.0,
        f_knee_mhz=1100.0,
        f_max_mhz=1980.0,
        exponent=2.0,
    )
    mem_freqs = FrequencyTable.linear(1593.0, 2619.0, 4, default_mhz=2619.0)
    mem_voltage = VoltageCurve(
        v_min=0.82,
        v_max=1.25,
        f_min_mhz=1593.0,
        f_knee_mhz=1593.0,
        f_max_mhz=2619.0,
        exponent=1.0,
    )
    return DeviceSpec(
        name="NVIDIA H100",
        vendor="nvidia",
        n_cores=16896,
        ipc=0.55,
        max_resident_threads=270336,  # 132 SMs x 2048 threads
        mem_bandwidth_gbs=3350.0,
        mem_latency_ns=430.0,
        # 3350 GB/s x 430 ns / 8 B ~ 180k in-flight = 30000 x 6.
        max_mlp=30000,
        launch_overhead_us=2.0,
        core_freqs=freqs,
        mem_freq_mhz=2619.0,
        voltage=voltage,
        p_static_w=70.0,
        p_clock_w=10.0,
        p_core_dyn_w=420.0,
        p_mem_dyn_w=180.0,
        mem_freq_coupling=0.35,
        per_thread_mlp=6.0,
        mem_freqs=mem_freqs,
        mem_voltage=mem_voltage,
    )


def make_mi250_spec() -> DeviceSpec:
    """Spec mimicking an AMD MI250 (128 GB HBM2e, both GCDs) with memory DVFS.

    Like the MI100, the MI250 exposes performance levels and an automatic
    core governor rather than a default application clock; the memory
    domain, however, is settable (rocm-smi exposes discrete HBM levels).
    """
    freqs = FrequencyTable.linear(500.0, 1700.0, 110, default_mhz=None)
    voltage = VoltageCurve(
        v_min=0.73,
        v_max=1.12,
        f_min_mhz=500.0,
        f_knee_mhz=900.0,
        f_max_mhz=1700.0,
        exponent=2.0,
    )
    mem_freqs = FrequencyTable.linear(1000.0, 1600.0, 4, default_mhz=1600.0)
    mem_voltage = VoltageCurve(
        v_min=0.82,
        v_max=1.18,
        f_min_mhz=1000.0,
        f_knee_mhz=1000.0,
        f_max_mhz=1600.0,
        exponent=1.0,
    )
    return DeviceSpec(
        name="AMD MI250",
        vendor="amd",
        n_cores=13312,
        ipc=0.40,
        max_resident_threads=212992,  # 208 CUs x 1024 threads
        mem_bandwidth_gbs=3277.0,
        mem_latency_ns=520.0,
        # 3277 GB/s x 520 ns / 8 B ~ 213k in-flight = 35500 x 6.
        max_mlp=35500,
        launch_overhead_us=3.8,
        core_freqs=freqs,
        mem_freq_mhz=1600.0,
        voltage=voltage,
        p_static_w=90.0,
        p_clock_w=70.0,
        p_core_dyn_w=260.0,
        p_mem_dyn_w=130.0,
        mem_freq_coupling=0.4,
        per_thread_mlp=6.0,
        active_idle_frac=0.28,
        op_cost_overrides={"special_fn": 34.0},
        mem_freqs=mem_freqs,
        mem_voltage=mem_voltage,
    )


def scale_spec(spec: DeviceSpec, *, compute: float = 1.0, bandwidth: float = 1.0) -> DeviceSpec:
    """Return a copy of ``spec`` with compute and/or bandwidth scaled.

    Useful for what-if studies and for tests that need devices with extreme
    compute-to-bandwidth ratios.
    """
    check_positive(compute, "compute")
    check_positive(bandwidth, "bandwidth")
    return replace(
        spec,
        n_cores=max(1, int(round(spec.n_cores * compute))),
        mem_bandwidth_gbs=spec.mem_bandwidth_gbs * bandwidth,
    )
