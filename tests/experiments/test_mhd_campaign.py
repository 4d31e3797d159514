"""The MHD campaign (``build_campaign`` on the ``"mhd"`` kind): core-only
protocol and the 2-D (core x mem) grid."""

import numpy as np
import pytest

from repro.experiments.datasets import MEM_FEATURE_NAME, build_campaign
from repro.hw.device import create_device
from repro.mhd.app import MHD_FEATURE_NAMES
from repro.runtime.engine import CampaignEngine
from repro.synergy import SynergyDevice

GRIDS = ((6, 12, 8), (12, 24, 16))
FREQS = (300.0, 900.0, 1410.0)
SEED = 11


def a100_dev(seed=SEED):
    # Same construction as specs.run.build_device for non-default names.
    return SynergyDevice(create_device("a100"), seed=seed)


def engine():
    return CampaignEngine(jobs=1, campaign_seed=SEED, method="replay")


def build(device, grids=GRIDS, **kw):
    kw.setdefault("repetitions", 1)
    kw.setdefault("freqs_mhz", FREQS)
    kw.setdefault("freq_count", None)
    return build_campaign(device, "mhd", dict(grids=grids, steps=2), **kw)


class TestCoreOnlyCampaign:
    def test_structure_matches_the_other_builders(self):
        c = build(a100_dev(), engine=engine())
        assert c.dataset.feature_names == MHD_FEATURE_NAMES
        assert c.mem_freqs_mhz is None
        assert len(c.characterizations) == len(GRIDS)
        assert len(c.dataset) == len(GRIDS) * len(FREQS)

    def test_feature_tuples_are_grid_dimensions(self):
        c = build(a100_dev(), engine=engine())
        char = c.characterization_for((6.0, 12.0, 8.0))
        assert char.app_name == "mhd-6x12x8"
        assert char.mem_freq_mhz is None

    def test_serial_path_has_no_stats(self):
        assert build(a100_dev()).stats is None


class TestGridCampaign:
    def test_dataset_grows_the_memory_feature_column(self):
        dev = a100_dev()
        mems = dev.supported_memory_frequencies()
        c = build(dev, engine=engine(), mem_freqs_mhz=mems)
        assert c.dataset.feature_names == MHD_FEATURE_NAMES + (MEM_FEATURE_NAME,)
        assert c.mem_freqs_mhz == sorted(float(m) for m in mems)
        assert len(c.characterizations) == len(GRIDS) * len(mems)
        assert len(c.dataset) == len(GRIDS) * len(mems) * len(FREQS)

    def test_characterizations_are_keyed_by_grid_and_memory_clock(self):
        dev = a100_dev()
        lo = float(dev.supported_memory_frequencies()[0])
        c = build(dev, engine=engine(), mem_freqs_mhz=[lo])
        char = c.characterization_for((6.0, 12.0, 8.0, lo))
        assert char.app_name == "mhd-6x12x8"
        assert char.mem_freq_mhz == lo

    def test_memory_clocks_come_back_sorted(self):
        dev = a100_dev()
        mems = list(dev.supported_memory_frequencies())
        c = build(dev, engine=engine(), mem_freqs_mhz=list(reversed(mems)))
        assert c.mem_freqs_mhz == sorted(float(m) for m in mems)

    def test_grid_campaign_always_reports_engine_stats(self):
        # The 2-D fan-out runs through an engine even when the caller
        # does not pass one.
        dev = a100_dev()
        c = build(dev, mem_freqs_mhz=[float(dev.supported_memory_frequencies()[0])])
        assert c.stats is not None
        assert c.stats.executed > 0

    def test_caller_engine_is_used(self):
        dev = a100_dev()
        eng = engine()
        c = build(dev, engine=eng, mem_freqs_mhz=dev.supported_memory_frequencies())
        assert c.stats is eng.stats


class TestLegacyBitIdentity:
    def test_reference_memory_rows_match_the_core_only_campaign(self):
        """Headline invariant at the builder level: the 2-D campaign's
        reference-memory rows are bitwise the 1-D campaign."""
        dev = a100_dev()
        ref = dev.default_memory_frequency_mhz
        flat = build(a100_dev(), engine=engine())
        grid = build(dev, engine=engine(), mem_freqs_mhz=dev.supported_memory_frequencies())
        for nr, ntheta, nz in GRIDS:
            feats = (float(nr), float(ntheta), float(nz))
            a = flat.characterization_for(feats)
            b = grid.characterization_for(feats + (ref,))
            assert a.baseline_time_s == b.baseline_time_s
            assert a.baseline_energy_j == b.baseline_energy_j
            for sa, sb in zip(a.samples, b.samples):
                assert sa.time_s == sb.time_s
                assert sa.energy_j == sb.energy_j
                assert np.array_equal(sa.rep_times_s, sb.rep_times_s)
                assert np.array_equal(sa.rep_energies_j, sb.rep_energies_j)

    def test_down_clocked_memory_stretches_runtime(self):
        # The MHD kernels are memory-bound by design, so the low-memory
        # row must be measurably slower than the reference row.
        dev = a100_dev()
        mems = dev.supported_memory_frequencies()
        # A grid large enough that bandwidth (not launch latency) rules.
        c = build(dev, engine=engine(), grids=((24, 48, 32),), mem_freqs_mhz=mems)
        lo = c.characterization_for((24.0, 48.0, 32.0, float(mems[0])))
        ref = c.characterization_for((24.0, 48.0, 32.0, dev.default_memory_frequency_mhz))
        top = max(FREQS)
        t_lo = next(s.time_s for s in lo.samples if s.freq_mhz == top)
        t_ref = next(s.time_s for s in ref.samples if s.freq_mhz == top)
        assert t_lo > 1.05 * t_ref


def test_mem_sweep_on_a_legacy_device_needs_no_special_case(v100_dev):
    # A V100's "memory table" is the single reference entry, so a 2-D
    # build collapses to one row that is still bitwise-comparable.
    mems = v100_dev.supported_memory_frequencies()
    assert len(mems) == 1
    c = build(v100_dev, engine=engine(), grids=(GRIDS[0],), mem_freqs_mhz=mems)
    assert c.mem_freqs_mhz == [float(mems[0])]
    char = c.characterization_for((6.0, 12.0, 8.0, float(mems[0])))
    assert char.mem_freq_mhz == float(mems[0])
