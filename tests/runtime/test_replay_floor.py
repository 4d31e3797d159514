"""Record-once/replay against the serial path on a fixed Cronos campaign.

The same campaign is built twice through the engine, once measuring
every launch serially and once recording each unique launch and
replaying it. Replay must be bit-identical to serial, and faster: it
exists only to save the per-launch work.
"""

import time

import numpy as np
import pytest

from repro.experiments.datasets import build_cronos_campaign
from repro.runtime.engine import CampaignEngine
from repro.synergy import Platform

# Big enough that launch evaluation dominates the serial path, small
# enough for tier-1.
GRIDS = ((32, 16, 16), (48, 24, 24), (64, 32, 32))
FREQ_COUNT = 16
REPETITIONS = 3
N_STEPS = 4
SEED = 42


def _build(method):
    device = Platform.default(seed=7).get_device("v100")
    engine = CampaignEngine(jobs=1, cache=None, campaign_seed=SEED, method=method)
    t0 = time.perf_counter()
    campaign = build_cronos_campaign(
        device,
        grids=GRIDS,
        freq_count=FREQ_COUNT,
        n_steps=N_STEPS,
        repetitions=REPETITIONS,
        engine=engine,
    )
    return campaign, time.perf_counter() - t0


@pytest.fixture(scope="module")
def builds():
    return {method: _build(method) for method in ("serial", "replay")}


def test_replay_is_bit_identical_to_serial(builds):
    serial, _ = builds["serial"]
    replay, _ = builds["replay"]
    assert serial.freqs_mhz == replay.freqs_mhz
    assert set(serial.characterizations) == set(replay.characterizations)
    for key, a in serial.characterizations.items():
        b = replay.characterizations[key]
        assert a.baseline_time_s == b.baseline_time_s
        assert a.baseline_energy_j == b.baseline_energy_j
        assert len(a.samples) == len(b.samples)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.freq_mhz == sb.freq_mhz
            assert sa.time_s == sb.time_s
            assert sa.energy_j == sb.energy_j
            assert np.array_equal(sa.rep_times_s, sb.rep_times_s)
            assert np.array_equal(sa.rep_energies_j, sb.rep_energies_j)


def test_replay_is_faster_than_serial(builds):
    _, serial_s = builds["serial"]
    _, replay_s = builds["replay"]
    assert replay_s < serial_s, (
        f"replay ({replay_s:.3f}s) not faster than serial ({serial_s:.3f}s)"
    )
