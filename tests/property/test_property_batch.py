"""Property-based tests: batched model evaluation vs the scalar path.

The batch path promises *bitwise* agreement with ``time`` — not
approximate agreement — because replay-mode characterization relies on
it for byte-identical results and shared cache keys. Hypothesis explores
the launch space (operation mixes, thread counts, work iterations,
frequencies) looking for any cell where the two paths diverge.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.perf import RooflineTimingModel
from repro.hw.power import PowerModel
from repro.hw.specs import make_mi100_spec, make_v100_spec
from repro.kernels.batch import KernelLaunchBatch
from repro.kernels.ir import KernelLaunch, KernelSpec
from tests.conftest import timing_at

V100 = make_v100_spec()
MI100 = make_mi100_spec()


@st.composite
def launches(draw):
    kwargs = {
        "int_add": draw(st.floats(min_value=0.0, max_value=500.0)),
        "int_div": draw(st.floats(min_value=0.0, max_value=50.0)),
        "float_add": draw(st.floats(min_value=0.0, max_value=2000.0)),
        "float_mul": draw(st.floats(min_value=0.0, max_value=2000.0)),
        "special_fn": draw(st.floats(min_value=0.0, max_value=100.0)),
        "global_access": draw(st.floats(min_value=0.0, max_value=200.0)),
        "local_access": draw(st.floats(min_value=0.0, max_value=100.0)),
    }
    if sum(kwargs.values()) < 1e-3:  # avoid underflow-degenerate kernels
        kwargs["float_add"] = 1.0
    threads = draw(st.integers(min_value=1, max_value=5_000_000))
    work_iterations = draw(st.floats(min_value=1.0, max_value=64.0))
    return KernelLaunch(
        KernelSpec("prop", **kwargs), threads=threads, work_iterations=work_iterations
    )


specs = st.sampled_from([V100, MI100])


def _freq_for(spec, draw_fraction):
    table = spec.core_freqs.freqs_mhz
    lo, hi = float(table[0]), float(table[-1])
    return lo + draw_fraction * (hi - lo)


@given(launches(), specs, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=120, deadline=None)
def test_time_batch_bitwise_equals_scalar_time(launch, spec, frac):
    timing = RooflineTimingModel(spec)
    freq = _freq_for(spec, frac)
    batch = KernelLaunchBatch.from_launches([launch])
    bt = timing.time_batch(batch, [freq])
    got = timing_at(bt, 0, 0)
    ref = timing.time(launch, freq)
    assert got == ref  # KernelTiming is a frozen dataclass: fieldwise ==


@given(
    st.lists(launches(), min_size=1, max_size=6),
    specs,
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_time_batch_grid_bitwise_equals_scalar_grid(batch_launches, spec, fracs):
    timing = RooflineTimingModel(spec)
    freqs = sorted({_freq_for(spec, f) for f in fracs})
    batch = KernelLaunchBatch.from_launches(batch_launches)
    bt = timing.time_batch(batch, freqs)
    for i, launch in enumerate(batch.unique):
        for j, freq in enumerate(freqs):
            assert timing_at(bt, i, j) == timing.time(launch, freq)


@given(
    specs,
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-9, max_value=1e-2),
)
@settings(max_examples=120, deadline=None)
def test_energy_batch_bitwise_equals_scalar(spec, frac, u_comp, u_mem, exec_s):
    power = PowerModel(spec)
    freq = _freq_for(spec, frac)
    got = power.energy_batch(
        np.array([freq]), np.array([u_comp]), np.array([u_mem]), np.array([exec_s])
    )
    assert float(got[0]) == power.energy_j(freq, u_comp, u_mem, exec_s)
