"""One seeding pass per sweep: the engine derives its missed points' sensor streams at once.

After its cache lookups, the engine derives the energy and time sensor
streams of every missed point of a sweep in one pass
(``repro.synergy.api.sensor_stream_words``) and each task carries its own
point's state words, so no task hashes a seed through
``numpy.random.SeedSequence``:

- cold, that is one pass per sweep over all its points, and no
  ``SeedSequence`` or ``default_rng`` at all; warm, no pass; partly warm,
  one pass per sweep with a miss, over the missed points only;
- every value is bitwise the one a task seeded from its seed alone
  measures;
- a chaos campaign that retries transient faults rebuilds each attempt's
  sensors from the same words, so it equals the fault-free campaign.
"""

import numpy as np
import pytest

from repro.cronos.app import CronosApplication
from repro.faults import FaultPlan, FaultSpec
from repro.hw.specs import make_a100_spec, make_v100_spec
from repro.ligen.app import LigenApplication
from repro.mhd.app import MhdApplication
from repro.runtime import engine as engine_module
from repro.runtime.cache import ResultCache
from repro.runtime.engine import CampaignEngine, MeasurementTask, execute_task

V100_APPS = (
    CronosApplication.from_size(10, 4, 4, n_steps=2),
    LigenApplication(256, 31, 4),
)
V100_FREQS = [135.0, 900.0, 1597.0]
MHD_APPS = (MhdApplication.from_size(6, 12, 8, n_steps=2),)
MHD_FREQS = [210.0, 1410.0]
MHD_MEM_FREQS = [810.0, 1215.0]
V100_POINTS = len(V100_APPS) * (1 + len(V100_FREQS))
MHD_POINTS = len(MHD_APPS) * (1 + len(MHD_FREQS) * len(MHD_MEM_FREQS))

#: Every transient kind, gentle enough on launches (MHD runs many) that
#: the retry budget below absorbs every fault.
TRANSIENT_PLAN = FaultPlan(
    seed=13,
    specs=(
        FaultSpec(kind="launch_failure", probability=0.02),
        FaultSpec(kind="freq_rejection", probability=0.30),
        FaultSpec(kind="sensor_dropout", probability=0.15),
        FaultSpec(kind="worker_crash", probability=0.30),
    ),
)


def _v100_sweep(engine, freqs=V100_FREQS):
    return engine.characterize_many(V100_APPS, make_v100_spec(), freqs_mhz=freqs, repetitions=2)


def _mhd_sweep(engine, mem_freqs=MHD_MEM_FREQS):
    return engine.characterize_grid(
        MHD_APPS, make_a100_spec(), freqs_mhz=MHD_FREQS, mem_freqs_mhz=mem_freqs, repetitions=2
    )


def _engine(root=None, method="replay", **kwargs):
    cache = None if root is None else ResultCache(root)
    return CampaignEngine(jobs=1, cache=cache, campaign_seed=5, method=method, **kwargs)


def _bits(results):
    """Every number of a list of characterization results (or grid rows), as bytes."""
    out = []
    for item in results:
        for result in item if isinstance(item, list) else [item]:
            out.append(np.asarray([result.baseline_time_s, result.baseline_energy_j]).tobytes())
            for s in result.samples:
                out.append(np.asarray([s.freq_mhz, s.time_s, s.energy_j]).tobytes())
                out.append(s.rep_times_s.tobytes() + s.rep_energies_j.tobytes())
    return out


@pytest.fixture
def derived(monkeypatch):
    """Seeds per stream pass, and ``default_rng``/``SeedSequence`` calls."""
    calls = {"passes": [], "default_rng": 0, "SeedSequence": 0}
    derive = engine_module.sensor_stream_words

    def counted_derive(seeds):
        calls["passes"].append(len(seeds))
        return derive(seeds)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(engine_module, "sensor_stream_words", counted_derive)
    monkeypatch.setattr(np.random, "default_rng", counting("default_rng", np.random.default_rng))
    monkeypatch.setattr(np.random, "SeedSequence", counting("SeedSequence", np.random.SeedSequence))
    return calls


class TestOnePassPerSweep:
    @pytest.mark.parametrize("method", ["replay", "serial"])
    def test_cold_sweep_derives_once_and_hashes_no_seed_per_point(self, tmp_path, derived, method):
        engine = _engine(tmp_path, method=method)
        _v100_sweep(engine)
        _mhd_sweep(engine)
        assert derived == {"passes": [V100_POINTS, MHD_POINTS], "default_rng": 0, "SeedSequence": 0}

    def test_warm_sweep_derives_nothing(self, tmp_path, derived):
        _v100_sweep(_engine(tmp_path))
        _mhd_sweep(_engine(tmp_path))
        derived["passes"].clear()
        engine = _engine(tmp_path)
        _v100_sweep(engine)
        _mhd_sweep(engine)
        assert derived["passes"] == []
        assert engine.stats.executed == 0

    def test_partly_warm_sweep_derives_its_misses_only(self, tmp_path, derived):
        warm = _engine(tmp_path)
        _v100_sweep(warm, freqs=[135.0])
        _mhd_sweep(warm, mem_freqs=[1215.0])
        derived["passes"].clear()
        engine = _engine(tmp_path)
        partly = _bits(_v100_sweep(engine)) + _bits(_mhd_sweep(engine))
        # Baselines and 135 MHz (V100) and the reference column (A100) hit.
        assert derived["passes"] == [len(V100_APPS) * 2, len(MHD_APPS) * len(MHD_FREQS)]
        assert engine.stats.executed == sum(derived["passes"])
        cold = _engine()
        assert partly == _bits(_v100_sweep(cold)) + _bits(_mhd_sweep(cold))


class TestSameStreams:
    def test_carried_words_measure_what_the_seed_alone_measures(self):
        engine = _engine()
        tasks = []
        run = engine._run_points

        def capture(spec, repetitions, points, keys, progress):
            tasks.extend(engine._tasks(spec, repetitions, points))
            return run(spec, repetitions, points, keys, progress)

        engine._run_points = capture
        _mhd_sweep(engine)
        assert len(tasks) == MHD_POINTS
        for task in tasks:
            assert task.streams is not None and task.streams.flags.c_contiguous
            bare = MeasurementTask(
                app=task.app,
                spec=task.spec,
                freq_mhz=task.freq_mhz,
                repetitions=task.repetitions,
                seed=task.seed,
                method=task.method,
                mem_freq_mhz=task.mem_freq_mhz,
                launches=task.launches,
            )
            assert execute_task(task) == execute_task(bare)

    def test_retried_chaos_campaign_equals_the_fault_free_one(self):
        chaos = _engine(fault_plan=TRANSIENT_PLAN, max_retries=16)
        faulty = _bits(_v100_sweep(chaos)) + _bits(_mhd_sweep(chaos))
        assert chaos.stats.retries > 0 and chaos.stats.quarantined == 0
        clean = _engine()
        assert faulty == _bits(_v100_sweep(clean)) + _bits(_mhd_sweep(clean))
