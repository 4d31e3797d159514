"""Per-sweep work floor of the campaign engine.

A cached replay campaign (three V100 inputs on a 1-D sweep and one A100
MHD input on a 2-D grid, two repetitions) runs cold and then warm. What
every point of a sweep shares must be paid once per sweep, not once per
point:

- ``DeviceSpec.signature`` is called once per sweep, and
  ``ResultCache.key_for`` (the one-payload oracle) never;
- each app's launches are recorded and deduplicated once per sweep;
- the ``CampaignStats`` launch counters stay what the per-point engine
  reported.
"""

from functools import wraps

import pytest

from repro.cronos.app import CronosApplication
from repro.hw.specs import DeviceSpec, make_a100_spec, make_v100_spec
from repro.kernels.batch import KernelLaunchBatch
from repro.ligen.app import LigenApplication
from repro.mhd.app import MhdApplication
from repro.runtime import engine as engine_module
from repro.runtime.cache import ResultCache
from repro.runtime.engine import CampaignEngine

V100_APPS = (
    CronosApplication.from_size(10, 4, 4, n_steps=2),
    CronosApplication.from_size(20, 8, 8, n_steps=2),
    LigenApplication(256, 31, 4),
)
MHD_APPS = (MhdApplication.from_size(6, 12, 8, n_steps=2),)
TASKS = len(V100_APPS) * (1 + 3) + len(MHD_APPS) * (1 + 2 * 2)
#: Launches recorded, unique launches, batched and serial-equivalent
#: model evaluations, as the engine reported them when every task
#: recorded its own app.
LAUNCH_COUNTERS = (61, 14, 60, 506)


def _v100_sweep(engine):
    return engine.characterize_many(
        V100_APPS, make_v100_spec(), freqs_mhz=[135.0, 900.0, 1597.0], repetitions=2
    )


def _mhd_sweep(engine):
    return engine.characterize_grid(
        MHD_APPS, make_a100_spec(), freqs_mhz=[210.0, 1410.0],
        mem_freqs_mhz=[810.0, 1215.0], repetitions=2,
    )


SWEEPS = ((_v100_sweep, V100_APPS), (_mhd_sweep, MHD_APPS))


def _engine(root):
    return CampaignEngine(jobs=1, cache=ResultCache(root), campaign_seed=5, method="replay")


@pytest.fixture
def counts(monkeypatch):
    """Calls per counted function; the test clears it between sweeps."""
    calls = {}

    def count(owner, name):
        raw = vars(owner)[name]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw

        @wraps(fn)
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, classmethod(counted) if fn is not raw else counted)

    count(DeviceSpec, "signature")
    count(ResultCache, "key_for")
    count(engine_module, "record_launches")
    count(KernelLaunchBatch, "from_launches")
    return calls


@pytest.mark.parametrize("warm", [False, True])
def test_shared_work_is_paid_once_per_sweep(tmp_path, counts, warm):
    if warm:
        for sweep, _ in SWEEPS:
            sweep(_engine(tmp_path))
    engine = _engine(tmp_path)
    for sweep, apps in SWEEPS:
        counts.clear()
        sweep(engine)
        assert counts == {
            "signature": 1,
            "record_launches": len(apps),
            "from_launches": len(apps),
        }
    stats = engine.stats
    assert stats.tasks_total == TASKS
    assert (stats.cache_hits, stats.executed) == ((TASKS, 0) if warm else (0, TASKS))
    assert (
        stats.launches_recorded,
        stats.unique_launches,
        stats.launch_evals_replay,
        stats.launch_evals_serial_equivalent,
    ) == LAUNCH_COUNTERS

