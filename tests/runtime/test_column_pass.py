"""The column pass of a replay campaign: one model pass per app and memory clock.

After its cache lookups, the engine evaluates every missed point of an
app at one memory clock in a single ``time_batch`` / ``energy_batch``
call, and each task carries its app's evaluated columns:

- cold, that is one call per (app, memory column); warm, none; partly
  warm, one per (app, memory column) that still has a miss, over the
  missed clocks only;
- an auto-governed baseline, whose clocks are not known before it runs,
  is still evaluated by its own task;
- every value is bitwise the one a task without a column measures.
"""

from functools import wraps

import numpy as np
import pytest

from repro.cronos.app import CronosApplication
from repro.hw.perf import RooflineTimingModel
from repro.hw.power import PowerModel
from repro.hw.specs import make_a100_spec, make_mi100_spec, make_v100_spec
from repro.ligen.app import LigenApplication
from repro.mhd.app import MhdApplication
from repro.runtime.cache import ResultCache
from repro.runtime.engine import CampaignEngine

V100_APPS = (
    CronosApplication.from_size(10, 4, 4, n_steps=2),
    CronosApplication.from_size(20, 8, 8, n_steps=2),
    LigenApplication(256, 31, 4),
)
V100_FREQS = [135.0, 900.0, 1597.0]
MHD_APPS = (MhdApplication.from_size(6, 12, 8, n_steps=2),)
MHD_FREQS = [210.0, 1410.0]
#: The A100's reference memory clock is 1215 MHz: two memory columns.
MHD_MEM_FREQS = [810.0, 1215.0]


def _v100_sweep(engine, freqs=V100_FREQS):
    return engine.characterize_many(V100_APPS, make_v100_spec(), freqs_mhz=freqs, repetitions=2)


def _mhd_sweep(engine, mem_freqs=MHD_MEM_FREQS):
    return engine.characterize_grid(
        MHD_APPS, make_a100_spec(), freqs_mhz=MHD_FREQS, mem_freqs_mhz=mem_freqs, repetitions=2
    )


def _engine(root=None, seed=5):
    cache = None if root is None else ResultCache(root)
    return CampaignEngine(jobs=1, cache=cache, campaign_seed=seed, method="replay")


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
def passes(monkeypatch):
    """``(kind, clocks, mem)`` of every ``time_batch``/``energy_batch`` call."""
    calls = []

    def record(owner, name):
        fn = vars(owner)[name]

        @wraps(fn)
        def counted(self, *args, **kwargs):
            result = fn(self, *args, **kwargs)
            if name == "time_batch":
                batch, freqs = args[:2]
                mem = args[2] if len(args) > 2 else kwargs.get("mem_mhz")
                calls.append((name, tuple(float(f) for f in freqs), mem))
            else:
                calls.append((name, None, kwargs.get("mem_mhz")))
            return result

        monkeypatch.setattr(owner, name, counted)

    record(RooflineTimingModel, "time_batch")
    record(PowerModel, "energy_batch")
    return calls


def _time_passes(calls):
    return [(clocks, mem) for name, clocks, mem in calls if name == "time_batch"]


class TestOnePassPerColumn:
    def test_cold_sweep_makes_one_pass_per_app_and_memory_column(self, tmp_path, passes):
        engine = _engine(tmp_path)
        _v100_sweep(engine)
        v100 = _time_passes(passes)
        default = make_v100_spec().core_freqs.default_mhz
        assert len(v100) == len(V100_APPS)
        for clocks, mem in v100:
            # The baseline's default clock rides along in the same pass.
            assert mem is None and default in clocks and len(clocks) == len(V100_FREQS) + 1
        passes.clear()
        _mhd_sweep(engine)
        assert sorted(mem or 0.0 for _, mem in _time_passes(passes)) == [0.0, 810.0]
        assert [name for name, _, _ in passes].count("energy_batch") == 2

    def test_warm_sweep_evaluates_nothing(self, tmp_path, passes):
        _v100_sweep(_engine(tmp_path))
        _mhd_sweep(_engine(tmp_path))
        passes.clear()
        engine = _engine(tmp_path)
        _v100_sweep(engine)
        _mhd_sweep(engine)
        assert passes == []
        assert engine.stats.executed == 0

    def test_partly_warm_sweep_passes_over_the_missed_points_only(self, tmp_path, passes):
        warm = _engine(tmp_path)
        _v100_sweep(warm, freqs=[135.0])
        _mhd_sweep(warm, mem_freqs=[1215.0])
        passes.clear()
        engine = _engine(tmp_path)
        _v100_sweep(engine)
        _mhd_sweep(engine)
        # Baselines and 135 MHz (V100) and the reference column (A100) hit.
        assert _time_passes(passes) == [((899.7384615384616, 1597.0), None)] * len(V100_APPS) + [
            (tuple(MHD_FREQS), 810.0)
        ]
        cold = _engine()
        assert _bits(_v100_sweep(engine)) == _bits(_v100_sweep(cold))
        assert _bits(_mhd_sweep(engine)) == _bits(_mhd_sweep(cold))

    def test_auto_governed_baseline_is_evaluated_by_its_task(self, passes):
        apps = V100_APPS[:2]
        _engine().characterize_many(apps, make_mi100_spec(), freqs_mhz=[300.0, 1502.0], repetitions=1)
        # The sweep's pass per app, then each baseline's governor clocks.
        time_passes = [clocks for clocks, _ in _time_passes(passes)]
        assert time_passes[: len(apps)] == [(300.0, 1502.0)] * len(apps)
        assert len(time_passes) == 2 * len(apps)

