"""Structure-of-arrays fleet state and the bit-identity contract.

The fleet simulator keeps **no per-GPU or per-job Python objects** on
its hot path: every quantity the tick loop touches lives in a
contiguous NumPy array indexed by GPU id or job id (the SoA layout the
campaign replay engine and :mod:`repro.ml.soa` already use). The naive
reference engine (:mod:`repro.fleet.reference`) keeps the same
quantities as plain Python attributes on per-object instances; both
engines deposit their final state into one :class:`FleetResult`, and
:func:`diff_trajectories` compares the two **bitwise** — byte-for-byte
over every array, including NaN payloads — which is the divergence
oracle the fleet benchmark and CI gate on.

Why bitwise equality is attainable at all: both engines charge energy
at *event boundaries* (job completion, failure, idle-span close-out)
with the identical scalar IEEE-754 expression, evaluated either
elementwise over arrays (vectorized) or per object (reference), and the
per-tick trajectory counters are integers, so no float reduction order
ever differs between the two. See ``docs/fleet.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

import numpy as np

__all__ = [
    "JOB_PENDING",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "FleetResult",
    "diff_trajectories",
    "assert_trajectories_equal",
]

#: Job lifecycle states (int8 codes in the ``job_status`` array).
JOB_PENDING = 0  #: not yet arrived
JOB_QUEUED = 1  #: arrived, waiting for a healthy idle GPU
JOB_RUNNING = 2  #: assigned; finishes at ``job_finish_s`` unless its GPU fails
JOB_DONE = 3  #: completed (SLA met iff ``job_finish_s <= job_deadline_s``)


@dataclass
class FleetResult:
    """Final SoA state of one fleet simulation, mode-independent.

    Every array is the *trajectory* the bit-identity contract covers:
    the vectorized and reference engines must produce byte-identical
    values for all of them. Scalar metadata (``mode``, wall-clock-free
    sizes) is excluded from the comparison.
    """

    mode: str
    policy: str
    n_gpus: int
    n_ticks: int
    tick_s: float

    # per-job arrays (length = number of generated jobs)
    job_type: np.ndarray = field(repr=False, default=None)
    job_arrival_tick: np.ndarray = field(repr=False, default=None)
    job_deadline_s: np.ndarray = field(repr=False, default=None)
    job_status: np.ndarray = field(repr=False, default=None)
    job_start_s: np.ndarray = field(repr=False, default=None)
    job_finish_s: np.ndarray = field(repr=False, default=None)
    job_freq_mhz: np.ndarray = field(repr=False, default=None)
    #: Predicted service time of the job's current/last assignment
    #: (its remaining work when a failure restarts it from scratch).
    job_work_s: np.ndarray = field(repr=False, default=None)
    job_energy_j: np.ndarray = field(repr=False, default=None)
    job_restarts: np.ndarray = field(repr=False, default=None)

    # per-GPU arrays
    gpu_energy_j: np.ndarray = field(repr=False, default=None)
    gpu_busy_s: np.ndarray = field(repr=False, default=None)
    gpu_jobs_done: np.ndarray = field(repr=False, default=None)
    gpu_failures: np.ndarray = field(repr=False, default=None)
    gpu_temp_c: np.ndarray = field(repr=False, default=None)
    gpu_max_temp_c: np.ndarray = field(repr=False, default=None)

    # per-tick integer trajectory (counts are ints so no float reduction
    # order can differ between engines)
    tick_queued: np.ndarray = field(repr=False, default=None)
    tick_running: np.ndarray = field(repr=False, default=None)
    tick_done: np.ndarray = field(repr=False, default=None)
    tick_down: np.ndarray = field(repr=False, default=None)

    #: Array field names covered by the bit-identity contract.
    TRAJECTORY_FIELDS = (
        "job_type",
        "job_arrival_tick",
        "job_deadline_s",
        "job_status",
        "job_start_s",
        "job_finish_s",
        "job_freq_mhz",
        "job_work_s",
        "job_energy_j",
        "job_restarts",
        "gpu_energy_j",
        "gpu_busy_s",
        "gpu_jobs_done",
        "gpu_failures",
        "gpu_temp_c",
        "gpu_max_temp_c",
        "tick_queued",
        "tick_running",
        "tick_done",
        "tick_down",
    )

    @property
    def n_jobs(self) -> int:
        return int(self.job_status.size)

    def sla_met(self) -> np.ndarray:
        """Boolean per-job array: completed on or before its deadline."""
        return (self.job_status == JOB_DONE) & (self.job_finish_s <= self.job_deadline_s)

    def summary(self) -> Dict[str, Any]:
        """Aggregate accounting, derived purely from the final arrays.

        Both engines call this same function on bitwise-identical
        arrays, so every float total here is itself bitwise identical
        across modes — no per-engine reduction is ever compared.
        """
        n_jobs = self.n_jobs
        done = int(np.count_nonzero(self.job_status == JOB_DONE))
        met = int(np.count_nonzero(self.sla_met()))
        horizon_s = self.n_ticks * self.tick_s
        wall_gpu_s = self.n_gpus * horizon_s
        total_energy = float(np.sum(self.gpu_energy_j))
        busy_s = float(np.sum(self.gpu_busy_s))
        return {
            "mode": self.mode,
            "policy": self.policy,
            "gpus": self.n_gpus,
            "ticks": self.n_ticks,
            "tick_s": self.tick_s,
            "jobs": n_jobs,
            "jobs_completed": done,
            "sla_met": met,
            "sla_attainment": (met / n_jobs) if n_jobs else 1.0,
            "total_energy_j": total_energy,
            "job_energy_j": float(np.sum(self.job_energy_j)),
            "busy_fraction": (busy_s / wall_gpu_s) if wall_gpu_s > 0 else 0.0,
            "gpu_failures": int(np.sum(self.gpu_failures)),
            "job_restarts": int(np.sum(self.job_restarts)),
            "max_temp_c": float(np.max(self.gpu_max_temp_c)) if self.n_gpus else 0.0,
            "peak_queue": int(np.max(self.tick_queued)) if self.n_ticks else 0,
        }


def diff_trajectories(a: FleetResult, b: FleetResult) -> List[str]:
    """Names of trajectory arrays that differ **bitwise** between results.

    Comparison is over raw bytes (``ndarray.tobytes``), so NaN patterns,
    signed zeros and last-ulp differences all count as divergence —
    exactly the standard the serving tests hold SoA inference to.
    """
    diverged = []
    for name in FleetResult.TRAJECTORY_FIELDS:
        xa, xb = getattr(a, name), getattr(b, name)
        if xa.dtype != xb.dtype or xa.shape != xb.shape or xa.tobytes() != xb.tobytes():
            diverged.append(name)
    return diverged


def assert_trajectories_equal(a: FleetResult, b: FleetResult) -> None:
    """Raise ``AssertionError`` naming every diverging trajectory array."""
    diverged = diff_trajectories(a, b)
    if diverged:
        raise AssertionError(
            f"fleet trajectories diverge between {a.mode!r} and {b.mode!r} "
            f"engines in: {', '.join(diverged)}"
        )
