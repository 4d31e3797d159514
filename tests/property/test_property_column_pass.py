"""Engine replay campaigns with a column pass equal the serial oracle, bitwise.

A replay campaign evaluates each app's missed points in one batched
pass per memory clock, after its cache lookups, and hands each task its
app's evaluated columns. Drawn campaigns cover the V100, the MI100
(whose auto-governed baseline the pass cannot know) and 2-D grids on the
A100, 1-5 repetitions and caches warmed on part of the sweep. On sampled
points, every value must equal what a serial engine measures, bit for
bit.
"""

import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cronos.app import CronosApplication
from repro.hw.specs import make_a100_spec, make_mi100_spec, make_v100_spec
from repro.ligen.app import LigenApplication
from repro.mhd.app import MhdApplication
from repro.runtime.cache import ResultCache
from repro.runtime.engine import CampaignEngine

SPECS = {"v100": make_v100_spec(), "mi100": make_mi100_spec(), "a100": make_a100_spec()}
APPS = (
    CronosApplication.from_size(10, 4, 4, n_steps=1),
    LigenApplication(16, 31, 4),
    MhdApplication.from_size(6, 12, 8, n_steps=1),
)


def _subset(draw, values, min_size=1, max_size=3):
    picked = draw(
        st.lists(st.sampled_from(values), min_size=min_size, max_size=max_size, unique=True)
    )
    return sorted(picked)


@st.composite
def campaigns(draw):
    device = draw(st.sampled_from(sorted(SPECS)))
    spec = SPECS[device]
    table = [float(f) for f in spec.core_freqs.freqs_mhz]
    freqs = _subset(draw, table, max_size=4)
    mems = None
    if device == "a100":
        mems = _subset(draw, [float(m) for m in spec.mem_freq_table.freqs_mhz], max_size=3)
    return {
        "spec": spec,
        "apps": _subset(draw, list(range(len(APPS))), max_size=2),
        "freqs": freqs,
        "mems": mems,
        "repetitions": draw(st.integers(min_value=1, max_value=5)),
        "seed": draw(st.integers(min_value=0, max_value=2**32 - 1)),
        # The cache is warmed with these clocks (and memory clocks) first.
        "warm": _subset(draw, freqs, min_size=0, max_size=len(freqs)),
        "warm_mems": None if mems is None else _subset(draw, mems, max_size=len(mems)),
        "sampled": _subset(draw, freqs, max_size=2),
    }


def _sweep(engine, c, freqs, mems):
    apps = [APPS[i] for i in c["apps"]]
    if c["mems"] is None:
        rows = engine.characterize_many(apps, c["spec"], freqs_mhz=freqs, repetitions=c["repetitions"])
        return [[r] for r in rows]
    return engine.characterize_grid(
        apps, c["spec"], freqs_mhz=freqs, mem_freqs_mhz=mems, repetitions=c["repetitions"]
    )


def _bits(rows, freqs):
    """Every number of ``rows`` at the clocks ``freqs``, as bytes."""
    keep = set(freqs)
    out = []
    for app_rows in rows:
        for r in app_rows:
            out.append(np.asarray([r.baseline_time_s, r.baseline_energy_j]).tobytes())
            for s in r.samples:
                if s.freq_mhz in keep:
                    out.append(np.asarray([s.freq_mhz, s.time_s, s.energy_j]).tobytes())
                    out.append(s.rep_times_s.tobytes() + s.rep_energies_j.tobytes())
    return out


@settings(
    max_examples=16,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(c=campaigns())
def test_replay_campaign_equals_serial_oracle(c):
    with tempfile.TemporaryDirectory() as root:
        if c["warm"]:
            warm = CampaignEngine(cache=ResultCache(root), campaign_seed=c["seed"], method="replay")
            _sweep(warm, c, c["warm"], c["warm_mems"])
        engine = CampaignEngine(cache=ResultCache(root), campaign_seed=c["seed"], method="replay")
        replayed = _sweep(engine, c, c["freqs"], c["mems"])
        if c["warm"]:
            assert engine.stats.cache_hits > 0
    serial = CampaignEngine(campaign_seed=c["seed"], method="serial")
    oracle = _sweep(serial, c, c["sampled"], c["mems"])
    assert _bits(replayed, c["sampled"]) == _bits(oracle, c["sampled"])
