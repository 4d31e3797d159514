"""Fleet-scale datacenter simulation with a vectorized SoA tick engine.

Scales the single-request advisor (:mod:`repro.serving`) to a simulated
GPU *fleet* under deadline-aware DVFS (ROADMAP item 1; Ilager et al.,
arXiv 2004.08177): a discrete-time simulator whose per-tick pipeline —
job arrivals → EDF scheduling → batched frequency advice →
power/thermal/energy accounting → completion/SLA tracking — runs as
NumPy passes over structure-of-arrays state, with frequency advice for
the whole fleet read from a per-job-type profile table that **one**
combined-forest batch call fills per run, instead of per-job scalar
predictions.

Layout:

- :mod:`repro.fleet.state` — the SoA arrays, :class:`FleetResult`, and
  the bitwise trajectory comparison;
- :mod:`repro.fleet.workload` — seeded arrivals, job types, and the
  sha256 GPU failure schedule (all randomness, decided up front);
- :mod:`repro.fleet.policy` — deadline-aware frequency selection,
  scalar and batched, provably tie-equivalent;
- :mod:`repro.fleet.advisor` — the per-job-type profile table, one
  :meth:`~repro.modeling.DomainSpecificModel.predict_tradeoff_batch`
  call per run;
- :mod:`repro.fleet.engine` — the vectorized tick loop and the
  spec-level entry points;
- :mod:`repro.fleet.reference` — the deliberately naive per-object
  loop, kept as the bit-identity divergence oracle.

Headline invariants (pinned by ``tests/fleet`` and the property suite;
``tests/fleet/test_scale_floors.py`` times 1,024 GPUs): both engines
produce **bitwise-identical** trajectories for any ``(FleetSpec, seed)``,
and the vectorized engine is >=10x faster at 1,000+ simulated GPUs. See
``docs/fleet.md``.
"""

from repro.fleet.advisor import FleetAdvisor
from repro.fleet.engine import compare_to_static, resolve_fleet_model, simulate_fleet
from repro.fleet.policy import (
    select_min_energy_deadline,
    select_min_energy_deadline_batch,
    static_grid_index,
)
from repro.fleet.state import (
    JOB_DONE,
    JOB_PENDING,
    JOB_QUEUED,
    JOB_RUNNING,
    FleetResult,
    assert_trajectories_equal,
    diff_trajectories,
)
from repro.fleet.workload import FleetWorkload, build_workload

__all__ = [
    "JOB_PENDING",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "FleetResult",
    "FleetWorkload",
    "FleetAdvisor",
    "build_workload",
    "simulate_fleet",
    "resolve_fleet_model",
    "compare_to_static",
    "select_min_energy_deadline",
    "select_min_energy_deadline_batch",
    "static_grid_index",
    "diff_trajectories",
    "assert_trajectories_equal",
]
