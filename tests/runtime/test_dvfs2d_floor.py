"""The 2-D DVFS gates on MHD, at the inputs the retired smoke script used.

MHD 24 x 48 x 32 for 20 steps on the A100: 12 core clocks by all four
memory clocks, 2 repetitions, device and campaign seed 42, deadline slack
1.25, measured by a replay engine. The gate helpers are the benchmark
suite's (``benchmarks/dvfs2d_smoke.py``):

- the grid row at the reference memory clock is bitwise the 1-D sweep;
- at an equal deadline the best (f_core, f_mem) pair uses strictly less
  energy than the best core-only clock (10.465% less on these inputs).
"""

import numpy as np

from benchmarks.dvfs2d_smoke import (
    DEADLINE_SLACK,
    GRID,
    _assert_reference_row_bitwise,
    _best_under_deadline,
    _flatten,
)
from repro.experiments.datasets import resolve_training_freqs
from repro.hw.device import SimulatedGPU
from repro.hw.specs import make_a100_spec
from repro.mhd.app import MhdApplication
from repro.runtime.engine import CampaignEngine
from repro.synergy.api import SynergyDevice

N_STEPS = 20
FREQ_COUNT = 12
REPETITIONS = 2
SEED = 42


def test_reference_row_is_the_1d_sweep_and_the_grid_beats_core_only():
    spec = make_a100_spec()
    freqs = resolve_training_freqs(SynergyDevice(SimulatedGPU(spec), seed=SEED), FREQ_COUNT)
    app = MhdApplication.from_size(*GRID, n_steps=N_STEPS)
    mem_freqs = spec.mem_freq_table.freqs_mhz
    assert len(mem_freqs) == 4

    def engine():
        return CampaignEngine(jobs=1, cache=None, campaign_seed=SEED, method="replay")

    rows = engine().characterize_grid(
        [app], spec, freqs_mhz=freqs, mem_freqs_mhz=mem_freqs, repetitions=REPETITIONS
    )[0]
    one_d = engine().characterize(app, spec, freqs_mhz=freqs, repetitions=REPETITIONS)
    reference = spec.mem_freq_mhz
    _assert_reference_row_bitwise(rows, one_d, reference)

    core, mem, times, energies = _flatten(rows)
    core_only = mem == reference
    deadline_s = float(times[core_only].min() * DEADLINE_SLACK)
    i1 = _best_under_deadline(times, energies, deadline_s, core_only)
    i2 = _best_under_deadline(times, energies, deadline_s, np.ones_like(core_only))
    assert energies[i2] < energies[i1], (
        f"2-D optimum ({core[i2]:.0f}/{mem[i2]:.0f} MHz, {energies[i2]:.3f} J) "
        f"does not strictly beat the core-only optimum "
        f"({core[i1]:.0f} MHz, {energies[i1]:.3f} J) at deadline {deadline_s:.4f} s"
    )
