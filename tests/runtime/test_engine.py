"""Tests for the cached campaign execution engine."""

import json

import numpy as np
import pytest

from repro.cronos.app import CronosApplication
from repro.errors import ConfigurationError
from repro.experiments.datasets import build_cronos_campaign
from repro.hw.specs import make_v100_spec, scale_spec
from repro.ligen.app import LigenApplication
from repro.runtime.cache import ResultCache
from repro.runtime.engine import CampaignEngine, MeasurementTask, app_fingerprint
from repro.synergy import Platform

SMALL_GRIDS = ((10, 4, 4), (20, 8, 8))
SMALL_FREQS = [135.0, 600.0, 1100.0, 1597.0]


def _apps():
    return [
        CronosApplication.from_size(nx, ny, nz, n_steps=3) for nx, ny, nz in SMALL_GRIDS
    ]


def _run(engine, spec, freqs=SMALL_FREQS, apps=None):
    return engine.characterize_many(
        apps if apps is not None else _apps(), spec, freqs_mhz=freqs, repetitions=2
    )


def _assert_identical(results_a, results_b):
    assert len(results_a) == len(results_b)
    for a, b in zip(results_a, results_b):
        assert a.app_name == b.app_name
        assert a.baseline_time_s == b.baseline_time_s
        assert a.baseline_energy_j == b.baseline_energy_j
        assert np.array_equal(a.freqs_mhz, b.freqs_mhz)
        assert np.array_equal(a.times_s, b.times_s)
        assert np.array_equal(a.energies_j, b.energies_j)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.rep_times_s, sb.rep_times_s)
            assert np.array_equal(sa.rep_energies_j, sb.rep_energies_j)


def _flat(out):
    """The results of any sweep entry point as one flat list."""
    if not isinstance(out, list):
        return [out]
    return [r for slot in out for r in (slot if isinstance(slot, list) else [slot])]


class TestConstruction:
    @pytest.mark.parametrize("jobs", [None, 0, 2])
    def test_jobs_other_than_one_is_refused(self, jobs):
        with pytest.raises(ConfigurationError, match="calling process"):
            CampaignEngine(jobs=jobs)

    def test_jobs_one_and_numpy_ints_run_the_default_campaign(self):
        spec = make_v100_spec()
        spelled = CampaignEngine(
            jobs=np.int64(1), max_retries=np.int32(3), campaign_seed=np.uint64(42)
        )
        assert spelled.max_attempts == 4
        _assert_identical(_run(spelled, spec), _run(CampaignEngine(campaign_seed=42), spec))

    @pytest.mark.parametrize("value", [1.5, True])
    def test_max_retries_must_be_an_int(self, value):
        with pytest.raises(ConfigurationError, match="max_retries"):
            CampaignEngine(max_retries=value)

    @pytest.mark.parametrize("value", [1.7, True])
    def test_campaign_seed_must_be_an_int(self, value):
        with pytest.raises(ConfigurationError, match="campaign_seed"):
            CampaignEngine(campaign_seed=value)


#: The three sweep entry points, each over one tiny app and one clock.
SWEEPS = {
    "characterize": lambda engine, app, spec, reps: engine.characterize(
        app, spec, freqs_mhz=[900.0], repetitions=reps
    ),
    "characterize_many": lambda engine, app, spec, reps: engine.characterize_many(
        [app], spec, freqs_mhz=[900.0], repetitions=reps
    ),
    "characterize_grid": lambda engine, app, spec, reps: engine.characterize_grid(
        [app], spec, freqs_mhz=[900.0], mem_freqs_mhz=[spec.mem_freq_mhz], repetitions=reps
    ),
}


class TestRepetitions:
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    @pytest.mark.parametrize("value", [0, -1, 1.5, True])
    def test_must_be_an_int_of_at_least_one(self, sweep, value):
        app = LigenApplication(16, 31, 4)
        with pytest.raises(ConfigurationError, match="repetitions"):
            SWEEPS[sweep](CampaignEngine(), app, make_v100_spec(), value)

    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_numpy_int_runs_the_int_campaign(self, sweep):
        app, spec = LigenApplication(16, 31, 4), make_v100_spec()
        want = _flat(SWEEPS[sweep](CampaignEngine(), app, spec, 2))
        got = _flat(SWEEPS[sweep](CampaignEngine(), app, spec, np.int64(2)))
        assert all(len(s.rep_times_s) == 2 for r in got for s in r.samples)
        _assert_identical(got, want)


class TestDeterminism:
    def test_campaign_seed_changes_noise(self):
        spec = make_v100_spec()
        a = _run(CampaignEngine(jobs=1, campaign_seed=42), spec)
        b = _run(CampaignEngine(jobs=1, campaign_seed=43), spec)
        assert not np.array_equal(a[0].times_s, b[0].times_s)

    def test_cache_does_not_change_results(self, tmp_path):
        spec = make_v100_spec()
        plain = _run(CampaignEngine(jobs=1, campaign_seed=42), spec)
        cached = _run(
            CampaignEngine(jobs=1, campaign_seed=42, cache=ResultCache(tmp_path)), spec
        )
        _assert_identical(plain, cached)


class TestCaching:
    def test_cold_then_warm_counts(self, tmp_path):
        spec = make_v100_spec()
        n_tasks = len(SMALL_GRIDS) * (1 + len(SMALL_FREQS))

        cold = CampaignEngine(jobs=1, campaign_seed=42, cache=ResultCache(tmp_path))
        cold_results = _run(cold, spec)
        assert cold.stats.tasks_total == n_tasks
        assert cold.stats.executed == n_tasks
        assert cold.stats.cache_misses == n_tasks
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_bytes_written > 0

        warm = CampaignEngine(jobs=1, campaign_seed=42, cache=ResultCache(tmp_path))
        warm_results = _run(warm, spec)
        assert warm.stats.executed == 0
        assert warm.stats.cache_hits == n_tasks
        assert warm.stats.cache_misses == 0
        _assert_identical(cold_results, warm_results)

    def test_resume_after_interrupt(self, tmp_path):
        """A partial campaign's cache is reused; only missing points run."""
        spec = make_v100_spec()
        partial_freqs = SMALL_FREQS[:2]

        first = CampaignEngine(jobs=1, campaign_seed=42, cache=ResultCache(tmp_path))
        _run(first, spec, freqs=partial_freqs)

        resumed = CampaignEngine(jobs=1, campaign_seed=42, cache=ResultCache(tmp_path))
        resumed_results = _run(resumed, spec)
        # Baseline + the two already-swept bins replay from cache per app.
        per_app_cached = 1 + len(partial_freqs)
        per_app_new = len(SMALL_FREQS) - len(partial_freqs)
        assert resumed.stats.cache_hits == len(SMALL_GRIDS) * per_app_cached
        assert resumed.stats.executed == len(SMALL_GRIDS) * per_app_new

        fresh = _run(CampaignEngine(jobs=1, campaign_seed=42), spec)
        _assert_identical(resumed_results, fresh)

    def test_spec_change_invalidates(self, tmp_path):
        spec = make_v100_spec()
        engine = CampaignEngine(jobs=1, campaign_seed=42, cache=ResultCache(tmp_path))
        _run(engine, spec)

        recal = CampaignEngine(jobs=1, campaign_seed=42, cache=ResultCache(tmp_path))
        _run(recal, scale_spec(spec, bandwidth=1.05), freqs=SMALL_FREQS)
        assert recal.stats.cache_hits == 0
        assert recal.stats.executed == recal.stats.tasks_total

    def test_campaign_seed_in_cache_key(self, tmp_path):
        spec = make_v100_spec()
        _run(CampaignEngine(jobs=1, campaign_seed=1, cache=ResultCache(tmp_path)), spec)
        other = CampaignEngine(jobs=1, campaign_seed=2, cache=ResultCache(tmp_path))
        _run(other, spec)
        assert other.stats.cache_hits == 0


def _entry_of(cache, point):
    """``(path, record)`` of the one cache entry whose key is at ``point``."""
    entries = [
        (path, json.loads(path.read_text())) for path in sorted(cache.root.glob("??/*.json"))
    ]
    return next((path, record) for path, record in entries if record["key"]["point"] == point)


class TestDamagedEntries:
    """A damaged cache entry costs one recompute and never aborts a campaign."""

    @pytest.mark.parametrize(
        "point, value",
        [
            (135.0, {"freq_mhz": 1000.0}),
            (135.0, [1.0, 2.0]),
            (135.0, "time"),
            (135.0, {"freq_mhz": 135.0, "time_s": "1.0", "energy_j": 1.0,
                     "rep_times_s": [1.0, 1.0], "rep_energies_j": [1.0, 1.0]}),
            (135.0, {"freq_mhz": 135.0, "time_s": 1.0, "energy_j": 1.0,
                     "rep_times_s": [1.0], "rep_energies_j": [1.0]}),
            (135.0, {"freq_mhz": None, "time_s": 1.0, "energy_j": 1.0,
                     "rep_times_s": [1.0, 1.0], "rep_energies_j": [1.0, 1.0]}),
            ("baseline", {"freq_mhz": 135.0, "time_s": 1.0, "energy_j": 1.0,
                          "rep_times_s": [1.0, 1.0], "rep_energies_j": [1.0, 1.0]}),
            ("baseline", {"freq_mhz": None, "time_s": 10 ** 400, "energy_j": 1.0,
                          "rep_times_s": [1.0, 1.0], "rep_energies_j": [1.0, 1.0]}),
        ],
    )
    def test_wrong_shaped_entry_is_recomputed_and_overwritten(self, tmp_path, point, value):
        spec = make_v100_spec()
        cold = _run(CampaignEngine(jobs=1, campaign_seed=42, cache=ResultCache(tmp_path)), spec)
        cache = ResultCache(tmp_path)
        path, record = _entry_of(cache, point)
        good = path.read_bytes()
        # A well-formed envelope whose digest matches its wrong value.
        cache.put(path.stem, value, record["key"])

        warm = CampaignEngine(jobs=1, campaign_seed=42, cache=cache)
        _assert_identical(_run(warm, spec), cold)
        assert warm.stats.cache_misses == warm.stats.executed == 1
        assert warm.stats.cache_hits == warm.stats.tasks_total - 1
        assert path.read_bytes() == good

    def test_non_finite_entry_is_recomputed(self, tmp_path):
        spec = make_v100_spec()
        cold = _run(CampaignEngine(jobs=1, campaign_seed=42, cache=ResultCache(tmp_path)), spec)
        cache = ResultCache(tmp_path)
        path, _ = _entry_of(cache, 135.0)
        good = path.read_text()
        path.write_text(good.replace('"time_s":', '"time_s":NaN,"was":'))

        warm = CampaignEngine(jobs=1, campaign_seed=42, cache=cache)
        _assert_identical(_run(warm, spec), cold)
        assert cache.stats.corrupt == 1
        assert warm.stats.executed == 1
        assert path.read_text() == good


class _OpaqueApp:
    """A non-dataclass workload with no ``cache_config`` attribute."""

    def __init__(self, inner):
        self.name = inner.name
        self._inner = inner

    def run(self, gpu):
        return self._inner.run(gpu)


def test_replay_task_needs_recorded_launches():
    with pytest.raises(ConfigurationError, match="recorded launches"):
        MeasurementTask(
            app=_apps()[0], spec=make_v100_spec(), freq_mhz=None, repetitions=1,
            seed=1, method="replay",
        )


class TestFingerprinting:
    def test_dataclass_apps_fingerprint(self):
        fp = app_fingerprint(LigenApplication(n_ligands=2, n_atoms=31, n_fragments=4))
        assert fp["type"].endswith("LigenApplication")
        assert fp["config"]["n_ligands"] == 2

    def test_explicit_cache_config_wins(self):
        app = _OpaqueApp(_apps()[0])
        app.cache_config = {"kind": "opaque", "size": 10}
        assert app_fingerprint(app)["config"] == {"kind": "opaque", "size": 10}

    def test_opaque_app_rejected_with_cache(self, tmp_path):
        engine = CampaignEngine(jobs=1, cache=ResultCache(tmp_path))
        with pytest.raises(ConfigurationError):
            _run(engine, make_v100_spec(), apps=[_OpaqueApp(_apps()[0])])

    def test_opaque_app_runs_without_cache(self):
        engine = CampaignEngine(jobs=1, campaign_seed=42)
        results = _run(engine, make_v100_spec(), apps=[_OpaqueApp(_apps()[0])])
        assert len(results[0].samples) == len(SMALL_FREQS)


class TestBuilderIntegration:
    def test_engine_routed_cronos_campaign(self, tmp_path):
        device = Platform.default(seed=7).get_device("v100")
        engine = CampaignEngine(jobs=1, campaign_seed=7, cache=ResultCache(tmp_path))
        campaign = build_cronos_campaign(
            device,
            grids=SMALL_GRIDS,
            freq_count=4,
            n_steps=3,
            repetitions=2,
            engine=engine,
        )
        assert campaign.stats is not None
        assert campaign.stats.tasks_total == len(SMALL_GRIDS) * (
            1 + len(campaign.freqs_mhz)
        )
        assert len(campaign.dataset) == len(SMALL_GRIDS) * len(campaign.freqs_mhz)
        # Every characterization carries a usable sweep.
        for result in campaign.characterizations.values():
            assert len(result.samples) == len(campaign.freqs_mhz)
            assert result.baseline_time_s > 0

    def test_progress_callback_reports_every_task(self):
        seen = []
        engine = CampaignEngine(jobs=1, campaign_seed=7)
        engine.characterize_many(
            _apps()[:1],
            make_v100_spec(),
            freqs_mhz=SMALL_FREQS,
            repetitions=2,
            progress=lambda done, total, label, cached: seen.append(
                (done, total, cached)
            ),
        )
        assert len(seen) == 1 + len(SMALL_FREQS)
        assert seen[-1][0] == seen[-1][1] == 1 + len(SMALL_FREQS)
        assert all(not cached for _, _, cached in seen)
