"""The vectorized fleet tick engine (and the shared entry points).

Per-tick pipeline, in this exact order (documented in ``docs/fleet.md``
and mirrored step-for-step by the reference engine):

1. **completions** — running jobs whose finish instant has been reached
   complete; their GPU is credited the job's energy and busy span and
   becomes available at the finish instant;
2. **failures** — the precomputed fault schedule fires: a failing GPU
   charges the partial span of whatever it was doing (job work or idle
   draw), requeues its job from scratch, and goes down for
   ``repair_ticks``;
3. **arrivals** — this tick's jobs join the queue;
4. **scheduling** — earliest-deadline-first over the queue onto healthy
   idle GPUs (ascending index), frequency picked per placement by the
   deadline-aware policy from a per-job-type profile table predicted
   once per run through one batched combined-forest call
   (:class:`~repro.fleet.advisor.FleetAdvisor`);
5. **thermal/power** — an elementwise first-order temperature proxy
   update from each GPU's current draw;
6. **trajectory** — integer queue/running/done/down counters.

Accounting is **span-based**, the fleet-scale generalization of
:meth:`repro.hw.device.SimulatedGPU.fast_forward`: energy is added only
at event boundaries (completion, failure, idle-span close-out at
assignment, end-of-horizon flush) as ``power x span``, never
accumulated tick-by-tick — which is both what makes the loop fast (no
per-tick per-GPU float work except the thermal proxy) and what makes
bitwise agreement with the per-object reference loop possible (each
energy term is one identical IEEE-754 expression in both engines,
applied to disjoint GPUs in the same chronological order).

Everything here is simulated time derived from the model's predictions;
no wall clock is ever read (TIM001 holds with no pragmas).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import FleetError
from repro.fleet.advisor import FleetAdvisor
from repro.fleet.policy import (
    select_min_energy_deadline_batch,
    static_grid_index,
)
from repro.fleet.state import (
    JOB_DONE,
    JOB_QUEUED,
    JOB_RUNNING,
    FleetResult,
)
from repro.fleet.workload import FleetWorkload, build_workload

__all__ = [
    "simulate_fleet",
    "resolve_fleet_model",
    "compare_to_static",
]


def simulate_fleet(spec, model, mode: str = "vectorized") -> FleetResult:
    """Run one fleet simulation; pure function of ``(spec, model, mode)``.

    ``mode`` selects the engine: ``"vectorized"`` (the SoA tick loop
    below) or ``"reference"`` (the deliberately naive per-object loop in
    :mod:`repro.fleet.reference`, forced through the per-tree forest
    walk). Both return bitwise-identical :class:`FleetResult`
    trajectories — the divergence oracle CI gates on.
    """
    arity = len(model.feature_names)
    for jt in spec.job_types:
        if len(jt.features) != arity:
            raise FleetError(
                f"job type {jt.name!r} has {len(jt.features)} feature(s) but the "
                f"model expects {arity} ({', '.join(model.feature_names)})"
            )
    if mode not in ("vectorized", "reference"):
        raise FleetError(f"unknown fleet engine mode {mode!r}")
    workload = build_workload(spec)
    if mode == "reference":
        from repro.fleet.reference import run_reference

        return run_reference(spec, model, workload)
    return _run_vectorized(spec, model, workload)


def _run_vectorized(spec, model, workload: FleetWorkload) -> FleetResult:
    freqs = spec.freq_grid()
    advisor = FleetAdvisor(model, freqs)
    n_g, n_t, n_j = spec.gpus, spec.ticks, workload.n_jobs
    tick_s = spec.tick_s
    idle_w = spec.idle_power_w
    ambient = spec.ambient_c
    heat = spec.heat_c_per_j
    cool = spec.cool_per_s
    advised = spec.policy == "advised"
    static_idx = (
        None if advised else static_grid_index(freqs, spec.static_freq_mhz)
    )

    # --- SoA state ---------------------------------------------------------
    # per-GPU
    avail_s = np.zeros(n_g)  # instant the current idle span started
    running = np.full(n_g, -1, dtype=np.int64)  # job id or -1
    gpu_finish = np.zeros(n_g)  # finish instant of the running job
    job_power = np.zeros(n_g)  # draw of the running job (W)
    job_energy = np.zeros(n_g)  # total energy of the running job (J)
    energy = np.zeros(n_g)
    busy_s = np.zeros(n_g)
    jobs_done = np.zeros(n_g, dtype=np.int64)
    failures = np.zeros(n_g, dtype=np.int64)
    down_until = np.zeros(n_g, dtype=np.int64)  # first healthy tick
    temp = np.full(n_g, float(ambient))
    max_temp = temp.copy()
    # per-job
    status = np.zeros(n_j, dtype=np.int8)
    j_start = np.full(n_j, np.nan)
    j_finish = np.full(n_j, np.nan)
    j_freq = np.full(n_j, np.nan)
    j_work = np.full(n_j, np.nan)
    j_energy = np.zeros(n_j)
    restarts = np.zeros(n_j, dtype=np.int64)
    # per-tick
    tick_queued = np.zeros(n_t, dtype=np.int64)
    tick_running = np.zeros(n_t, dtype=np.int64)
    tick_done = np.zeros(n_t, dtype=np.int64)
    tick_down = np.zeros(n_t, dtype=np.int64)

    fail_grid = workload.failures
    deadline_s = workload.deadline_s
    job_type = workload.job_type
    # One profile row per job type, predicted once for the whole run.
    type_times, type_energies = advisor.profiles(workload.type_features)

    for t in range(n_t):
        t_s = t * tick_s

        # 1. completions
        comp = np.flatnonzero((running >= 0) & (gpu_finish <= t_s))
        if comp.size:
            jids = running[comp]
            energy[comp] += job_energy[comp]
            j_energy[jids] += job_energy[comp]
            busy_s[comp] += gpu_finish[comp] - j_start[jids]
            jobs_done[comp] += 1
            avail_s[comp] = gpu_finish[comp]
            status[jids] = JOB_DONE
            running[comp] = -1
            job_power[comp] = 0.0
            job_energy[comp] = 0.0

        # 2. failures
        if fail_grid is not None:
            hit = np.flatnonzero(fail_grid[t] & (down_until <= t))
            if hit.size:
                was_running = running[hit] >= 0
                run_g = hit[was_running]
                idle_g = hit[~was_running]
                if run_g.size:
                    jids = running[run_g]
                    span = t_s - j_start[jids]
                    partial = job_power[run_g] * span
                    energy[run_g] += partial
                    j_energy[jids] += partial
                    busy_s[run_g] += span
                    status[jids] = JOB_QUEUED
                    restarts[jids] += 1
                    j_start[jids] = np.nan
                    j_finish[jids] = np.nan
                    j_freq[jids] = np.nan
                    running[run_g] = -1
                    job_power[run_g] = 0.0
                    job_energy[run_g] = 0.0
                if idle_g.size:
                    energy[idle_g] += idle_w * (t_s - avail_s[idle_g])
                failures[hit] += 1
                down_until[hit] = t + spec.repair_ticks
                avail_s[hit] = (t + spec.repair_ticks) * tick_s

        # 3. arrivals
        arriving = workload.arrivals_by_tick[t]
        if arriving.size:
            status[arriving] = JOB_QUEUED

        # 4. scheduling (EDF onto healthy idle GPUs, ascending index)
        queued = np.flatnonzero(status == JOB_QUEUED)
        idle = np.flatnonzero((running < 0) & (down_until <= t))
        if queued.size and idle.size:
            # ``queued`` is ascending, so a stable sort on the deadline
            # breaks ties by job id.
            order = np.argsort(deadline_s[queued], kind="stable")
            pick = queued[order[: idle.size]]
            gsel = idle[: pick.size]
            pick_type = job_type[pick]
            if advised:
                sel = select_min_energy_deadline_batch(
                    type_times[pick_type],
                    type_energies[pick_type],
                    deadline_s[pick] - t_s,
                )
            else:
                sel = static_idx
            dur = type_times[pick_type, sel]
            jen = type_energies[pick_type, sel]
            # Close each GPU's idle span at the placement instant.
            energy[gsel] += idle_w * (t_s - avail_s[gsel])
            status[pick] = JOB_RUNNING
            j_start[pick] = t_s
            j_finish[pick] = t_s + dur
            j_freq[pick] = freqs[sel]
            j_work[pick] = dur
            running[gsel] = pick
            gpu_finish[gsel] = t_s + dur
            job_power[gsel] = jen / dur
            job_energy[gsel] = jen

        # 5. thermal proxy (elementwise first-order lag toward the
        #    draw-dependent equilibrium; identical scalar expression in
        #    the reference engine)
        power_now = np.where(
            running >= 0, job_power, np.where(down_until > t, 0.0, idle_w)
        )
        temp = temp + (power_now * heat - (temp - ambient) * cool) * tick_s
        max_temp = np.maximum(max_temp, temp)

        # 6. integer trajectory counters
        tick_queued[t] = np.count_nonzero(status == JOB_QUEUED)
        tick_running[t] = np.count_nonzero(status == JOB_RUNNING)
        tick_done[t] = np.count_nonzero(status == JOB_DONE)
        tick_down[t] = np.count_nonzero(down_until > t)

    # End-of-horizon flush: charge in-flight work up to min(finish, end)
    # and trailing idle spans, so totals cover the full horizon.
    end_s = n_t * tick_s
    in_flight = np.flatnonzero(running >= 0)
    if in_flight.size:
        jids = running[in_flight]
        span = np.minimum(gpu_finish[in_flight], end_s) - j_start[jids]
        partial = job_power[in_flight] * span
        energy[in_flight] += partial
        j_energy[jids] += partial
        busy_s[in_flight] += span
    idle_end = np.flatnonzero(running < 0)
    if idle_end.size:
        span = np.maximum(end_s - avail_s[idle_end], 0.0)
        energy[idle_end] += idle_w * span

    return FleetResult(
        mode="vectorized",
        policy=spec.policy,
        n_gpus=n_g,
        n_ticks=n_t,
        tick_s=tick_s,
        job_type=job_type.copy(),
        job_arrival_tick=workload.arrival_tick.copy(),
        job_deadline_s=deadline_s.copy(),
        job_status=status,
        job_start_s=j_start,
        job_finish_s=j_finish,
        job_freq_mhz=j_freq,
        job_work_s=j_work,
        job_energy_j=j_energy,
        job_restarts=restarts,
        gpu_energy_j=energy,
        gpu_busy_s=busy_s,
        gpu_jobs_done=jobs_done,
        gpu_failures=failures,
        gpu_temp_c=temp,
        gpu_max_temp_c=max_temp,
        tick_queued=tick_queued,
        tick_running=tick_running,
        tick_done=tick_done,
        tick_down=tick_down,
    )


# ---------------------------------------------------------------------------
# spec-level helpers (model resolution, baseline comparison)
# ---------------------------------------------------------------------------
def resolve_fleet_model(spec) -> Tuple[Any, Optional[Any]]:
    """The model a fleet spec advises with: ``(model, manifest_or_None)``.

    A spec naming a registry model resolves through
    :class:`~repro.serving.ModelRegistry` (digest-verified, relative to
    the spec's directory). A spec with no model reference trains the
    built-in quick LiGen domain model — seeded by the spec seed, so two
    loads of the same spec advise identically.
    """
    if spec.model_registry is not None:
        from repro.serving import ModelRegistry
        from repro.specs.scenario import resolve_ref

        registry = ModelRegistry(resolve_ref(spec.model_registry, spec.base_dir))
        model, manifest = registry.resolve(spec.model_name, spec.model_version)
        return model, manifest
    return _quick_ligen_model(spec.seed), None


def _quick_ligen_model(seed: int):
    """Small seeded LiGen domain model for registry-less fleet specs."""
    from repro.experiments.datasets import build_campaign
    from repro.experiments.workloads import WORKLOADS
    from repro.ml import RandomForestRegressor
    from repro.modeling import DomainSpecificModel
    from repro.synergy.api import builtin_device

    campaign = build_campaign(
        builtin_device("v100", seed=seed),
        "ligen",
        WORKLOADS["ligen"].quick_params,
        freq_count=6,
        repetitions=1,
    )
    return DomainSpecificModel(
        campaign.dataset.feature_names,
        regressor_factory=lambda: RandomForestRegressor(
            n_estimators=12, random_state=seed
        ),
    ).fit(campaign.dataset)


def compare_to_static(
    spec, model, advised_result: Optional[FleetResult] = None
) -> Dict[str, Any]:
    """Advised fleet vs a static-clock fleet on the identical workload.

    The static baseline pins every placement at the grid clock nearest
    the spec's ``static_freq_mhz`` (default: the top of the frequency
    grid — the race-to-idle datacenter default), and reports that clock.
    Returns both summaries plus the energy saved by advice and the
    SLA-attainment delta; the headline claim the fleet benchmark gates
    on is *energy saved at equal SLA*.
    """
    if advised_result is None:
        advised_result = simulate_fleet(spec, model, mode="vectorized")
    static_freq = spec.static_freq_mhz
    if static_freq is None:
        static_freq = spec.freq_max_mhz
    freqs = spec.freq_grid()
    static_freq = float(freqs[static_grid_index(freqs, static_freq)])
    static_spec = replace(spec, policy="static", static_freq_mhz=static_freq)
    static_result = simulate_fleet(static_spec, model, mode="vectorized")
    adv, sta = advised_result.summary(), static_result.summary()
    saved = sta["total_energy_j"] - adv["total_energy_j"]
    return {
        "advised": adv,
        "static": sta,
        "static_freq_mhz": float(static_freq),
        "energy_saved_j": saved,
        "energy_saved_pct": (
            100.0 * saved / sta["total_energy_j"] if sta["total_energy_j"] > 0 else 0.0
        ),
        "sla_delta": adv["sla_attainment"] - sta["sla_attainment"],
    }
