"""The 2-D DVFS gates: the memory domain must pay for itself on MHD.

The benchmark suite's campaign workloads (``benchmarks/suite/campaign.py``)
and the tier-1 test ``tests/runtime/test_dvfs2d_floor.py`` run the
deliberately memory-bound MHD workload over the A100's full
(f_core, f_mem) grid through the campaign engine and check, with these
helpers, the two headline invariants of the memory-frequency subsystem:

1. **Legacy bit-identity** — the grid row measured at the device's
   reference memory clock is bitwise identical (times, energies, rep
   streams) to a plain 1-D core-only sweep: threading ``f_mem`` through
   the hardware model must not move a single bit of pre-existing output.
2. **Strict 2-D dominance** — at an equal deadline, the best
   (f_core, f_mem) configuration consumes *strictly* less energy than
   the best core-only configuration (f_mem pinned at the reference
   clock). This is the reason the subsystem exists: for bandwidth-bound
   kernels the energy optimum moves into the interior of the 2-D plane
   (DSO, arxiv 2407.13096).
"""

from __future__ import annotations

import numpy as np

#: The MHD input both gates run on.
GRID = (24, 48, 32)
#: Deadline slack over the fastest core-only configuration. Loose enough
#: that down-clocked memory rows are feasible, tight enough that the
#: deadline still binds (the unconstrained energy optimum is slower).
DEADLINE_SLACK = 1.25


def _assert_reference_row_bitwise(rows, one_d, reference_mhz: float) -> None:
    ref_row = next(r for r in rows if r.mem_freq_mhz == reference_mhz)
    assert ref_row.baseline_time_s == one_d.baseline_time_s
    assert ref_row.baseline_energy_j == one_d.baseline_energy_j
    assert len(ref_row.samples) == len(one_d.samples)
    for sa, sb in zip(ref_row.samples, one_d.samples):
        assert sa.freq_mhz == sb.freq_mhz
        assert sa.time_s == sb.time_s
        assert sa.energy_j == sb.energy_j
        assert np.array_equal(sa.rep_times_s, sb.rep_times_s)
        assert np.array_equal(sa.rep_energies_j, sb.rep_energies_j)


def _flatten(rows):
    """(core, mem, time, energy) arrays over the whole measured grid."""
    core, mem, times, energies = [], [], [], []
    for row in rows:
        for s in row.samples:
            core.append(s.freq_mhz)
            mem.append(row.mem_freq_mhz)
            times.append(s.time_s)
            energies.append(s.energy_j)
    return (np.array(core), np.array(mem), np.array(times), np.array(energies))


def _best_under_deadline(times, energies, deadline_s, where):
    feasible = np.flatnonzero((times <= deadline_s) & where)
    assert feasible.size, "no configuration meets the deadline"
    return int(feasible[np.argmin(energies[feasible])])
