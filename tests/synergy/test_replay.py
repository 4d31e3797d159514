"""Record-once/replay-many characterization: bitwise equivalence gates.

``characterize(..., method="replay")`` must return *byte-identical*
results to the serial protocol — same medians, same per-repetition
arrays, same device counters, same sensor-noise stream — so replay and
serial runs can share engine cache entries and seeds.
"""

import numpy as np
import pytest

from repro.cronos.app import CronosApplication
from repro.errors import ConfigurationError
from repro.hw.specs import make_v100_spec
from repro.ligen.app import LigenApplication
from repro.runtime.engine import CampaignEngine
from repro.synergy import Platform, characterize
from repro.synergy.replay import LaunchRecorder, ReplayPlan, record_launches, replay_measure


def _apps():
    return [
        CronosApplication.from_size(24, 24, 24, n_steps=2),
        LigenApplication(n_ligands=6, n_atoms=31, n_fragments=4),
    ]


def _assert_results_identical(a, b):
    assert a.app_name == b.app_name
    assert a.device_name == b.device_name
    assert a.baseline_freq_mhz == b.baseline_freq_mhz
    assert a.baseline_time_s == b.baseline_time_s
    assert a.baseline_energy_j == b.baseline_energy_j
    assert len(a.samples) == len(b.samples)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.freq_mhz == sb.freq_mhz
        assert sa.time_s == sb.time_s
        assert sa.energy_j == sb.energy_j
        assert np.array_equal(np.asarray(sa.rep_times_s), np.asarray(sb.rep_times_s))
        assert np.array_equal(np.asarray(sa.rep_energies_j), np.asarray(sb.rep_energies_j))


@pytest.mark.parametrize("device_name", ["v100", "mi100"])
class TestReplayEquivalence:
    def test_characterize_replay_matches_serial(self, device_name, small_freqs):
        freqs = small_freqs if device_name == "v100" else [800.0, 1000.0, 1200.0]
        for app in _apps():
            dev_s = Platform.default(seed=123).get_device(device_name)
            dev_r = Platform.default(seed=123).get_device(device_name)
            ref = characterize(app, dev_s, freqs_mhz=freqs, repetitions=3)
            got = characterize(app, dev_r, freqs_mhz=freqs, repetitions=3, method="replay")
            _assert_results_identical(ref, got)
            # The device trajectory itself must match, not just the samples.
            assert dev_s.gpu.time_counter_s == dev_r.gpu.time_counter_s
            assert dev_s.gpu.energy_counter_j == dev_r.gpu.energy_counter_j
            assert dev_s.gpu.launch_count == dev_r.gpu.launch_count
            assert dev_s.gpu.throttle_count == dev_r.gpu.throttle_count

    def test_replay_matches_serial_under_power_cap(self, device_name):
        app = CronosApplication.from_size(24, 24, 24, n_steps=2)
        freqs = [800.0, 1000.0, 1200.0]
        dev_s = Platform.default(seed=9).get_device(device_name)
        dev_r = Platform.default(seed=9).get_device(device_name)
        dev_s.gpu.set_power_cap(250.0)
        dev_r.gpu.set_power_cap(250.0)
        ref = characterize(app, dev_s, freqs_mhz=freqs, repetitions=3)
        got = characterize(app, dev_r, freqs_mhz=freqs, repetitions=3, method="replay")
        _assert_results_identical(ref, got)
        assert dev_s.gpu.throttle_count == dev_r.gpu.throttle_count


class TestReplayPrimitives:
    def test_recorder_rejects_non_launch_access(self):
        recorder = LaunchRecorder(make_v100_spec())
        with pytest.raises(ConfigurationError, match="not replayable|serial"):
            recorder.time_counter_s

    def test_recorder_name_matches_spec(self):
        spec = make_v100_spec()
        assert LaunchRecorder(spec).name == spec.name

    def test_record_launches_does_not_touch_device(self):
        dev = Platform.default(seed=1).get_device("v100")
        gpu = dev.gpu
        launches = record_launches(CronosApplication.from_size(16, 16, 16, n_steps=1), gpu)
        assert len(launches) > 0
        assert gpu.launch_count == 0
        assert gpu.time_counter_s == 0.0
        assert gpu.energy_counter_j == 0.0

    def test_prime_evaluates_whole_sweep_in_one_pass(self):
        dev = Platform.default(seed=1).get_device("v100")
        gpu = dev.gpu
        plan = ReplayPlan(gpu, record_launches(
            CronosApplication.from_size(16, 16, 16, n_steps=1), gpu))
        # Pinned clocks snap to the device table, so prime snapped bins
        # (the characterization runner sweeps snapped values already).
        freqs = [float(gpu.spec.core_freqs.snap(f)) for f in (800.0, 1000.0, 1200.0)]
        plan.prime(freqs)
        assert plan.model_evals == plan.n_unique * len(freqs)
        # Replaying a primed frequency performs no further model evals.
        gpu.set_core_frequency(freqs[1])
        replay_measure(plan, dev, repetitions=2)
        assert plan.model_evals == plan.n_unique * len(freqs)

    def test_bad_method_rejected(self, v100_dev):
        app = CronosApplication.from_size(16, 16, 16, n_steps=1)
        with pytest.raises(ConfigurationError, match="method"):
            characterize(app, v100_dev, freqs_mhz=[800.0], repetitions=1, method="turbo")


class TestEngineReplay:
    def test_engine_replay_matches_serial(self):
        spec = make_v100_spec()
        apps = _apps()
        freqs = [800.0, 1000.0, 1200.0]
        rs = CampaignEngine(jobs=1, campaign_seed=42, method="serial").characterize_many(
            apps, spec, freqs_mhz=freqs, repetitions=3)
        engine = CampaignEngine(jobs=1, campaign_seed=42, method="replay")
        rr = engine.characterize_many(apps, spec, freqs_mhz=freqs, repetitions=3)
        for a, b in zip(rs, rr):
            _assert_results_identical(a, b)
        stats = engine.stats
        assert stats.launches_recorded > 0
        assert 0 < stats.unique_launches <= stats.launches_recorded
        assert stats.launch_evals_replay < stats.launch_evals_serial_equivalent

    def test_replay_hits_serial_cache(self, tmp_path):
        from repro.runtime.cache import ResultCache

        spec = make_v100_spec()
        apps = [CronosApplication.from_size(24, 24, 24, n_steps=2)]
        freqs = [800.0, 1000.0]
        serial = CampaignEngine(
            jobs=1, cache=ResultCache(tmp_path), campaign_seed=42, method="serial")
        rs = serial.characterize_many(apps, spec, freqs_mhz=freqs, repetitions=3)
        replay = CampaignEngine(
            jobs=1, cache=ResultCache(tmp_path), campaign_seed=42, method="replay")
        rr = replay.characterize_many(apps, spec, freqs_mhz=freqs, repetitions=3)
        # Identical results => identical cache keys => every task is a hit.
        assert replay.stats.cache_hits == replay.stats.tasks_total
        assert replay.stats.executed == 0
        for a, b in zip(rs, rr):
            _assert_results_identical(a, b)

    def test_engine_rejects_bad_method(self):
        with pytest.raises(ConfigurationError, match="method"):
            CampaignEngine(jobs=1, method="warp")
