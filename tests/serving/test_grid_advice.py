"""2-D (core, memory) advice: stacked grid profiles and the 2-D serving grid."""

import sys
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ServingError
from repro.ml.forest import RandomForestRegressor
from repro.modeling.dataset import EnergyDataset, EnergySample
from repro.modeling.domain import DomainSpecificModel, TradeoffPrediction, stack_memory_rows
from repro.serving import AdvisorService, run_load, synthetic_requests
from repro.serving.objectives import Advice, Objective

from .conftest import TRAIN_FREQS

CORES = np.array([300.0, 900.0, 1410.0])
MEMS = (810.0, 1215.0)

LEGACY_KEYS = {
    "objective",
    "freq_mhz",
    "predicted_time_s",
    "predicted_energy_j",
    "predicted_speedup",
    "predicted_normalized_energy",
    "pareto_freqs_mhz",
    "on_pareto_front",
}


def profile(mem, times, energies, baseline_time=1.0, baseline_energy=10.0):
    t = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    return (
        float(mem),
        TradeoffPrediction(
            freqs_mhz=CORES.copy(),
            times_s=t,
            energies_j=e,
            speedups=baseline_time / t,
            normalized_energies=e / baseline_energy,
            baseline_freq_mhz=900.0,
        ),
    )


@pytest.fixture
def grid_profiles():
    # Reference row (1215): fast but hungry. Low row (810): slower,
    # cheaper. The minimum-EDP point sits at (900, 810), an interior
    # pair — neither the max-performance core nor the reference memory.
    return [
        profile(810.0, times=[2.0, 1.05, 1.01], energies=[5.2, 5.0, 9.0]),
        profile(1215.0, times=[1.9, 1.0, 0.8], energies=[9.5, 10.0, 14.0]),
    ]


class TestEvaluateGrid:
    def test_tradeoff_picks_an_interior_pair(self, grid_profiles):
        advice = Objective.tradeoff().evaluate(stack_memory_rows(grid_profiles))
        assert (advice.freq_mhz, advice.mem_freq_mhz) == (900.0, 810.0)
        assert advice.predicted_time_s == 1.05
        assert advice.predicted_energy_j == 5.0
        assert advice.on_pareto_front

    def test_deadline_objective_spans_rows(self, grid_profiles):
        # Deadline 1.0 s: feasible points are (900, 1215) and (1410, *).
        # Cheapest feasible energy is 9.0 at (1410, 810).
        advice = Objective.min_energy_deadline(1.01).evaluate(stack_memory_rows(grid_profiles))
        assert (advice.freq_mhz, advice.mem_freq_mhz) == (1410.0, 810.0)
        assert advice.predicted_energy_j == 9.0

    def test_power_cap_objective_spans_rows(self, grid_profiles):
        # Average power e/t: row 810 -> (2.6, ~4.76, ~8.9); row 1215 ->
        # (5.0, 10.0, 17.5). Cap 5.0 admits (300, 810), (900, 810) and
        # (300, 1215); the fastest of those is (900, 810).
        advice = Objective.max_speedup_power(5.0).evaluate(stack_memory_rows(grid_profiles))
        assert (advice.freq_mhz, advice.mem_freq_mhz) == (900.0, 810.0)

    def test_infeasible_deadline_raises(self, grid_profiles):
        with pytest.raises(ServingError, match="deadline"):
            Objective.min_energy_deadline(0.1).evaluate(stack_memory_rows(grid_profiles))

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            Objective.tradeoff().evaluate(stack_memory_rows([]))

    def test_advice_carries_the_grid_front_pairs(self, grid_profiles):
        advice = Objective.tradeoff().evaluate(stack_memory_rows(grid_profiles))
        assert advice.pareto_pairs_mhz is not None
        assert (advice.freq_mhz, advice.mem_freq_mhz) in advice.pareto_pairs_mhz
        # pairs and the flat frequency list describe the same front
        assert tuple(p[0] for p in advice.pareto_pairs_mhz) == advice.pareto_freqs_mhz

    def test_single_reference_row_matches_evaluate(self, grid_profiles):
        # A grid with only the reference row must pick the same
        # configuration as the 1-D path; only the identity gains a mem
        # clock.
        ref_row = grid_profiles[1]
        grid = Objective.tradeoff().evaluate(stack_memory_rows([ref_row]))
        flat = Objective.tradeoff().evaluate(ref_row[1])
        assert grid.freq_mhz == flat.freq_mhz
        assert grid.predicted_time_s == flat.predicted_time_s
        assert grid.predicted_energy_j == flat.predicted_energy_j
        assert grid.mem_freq_mhz == ref_row[0]
        assert flat.mem_freq_mhz is None


class TestAdviceWireFormat:
    def test_core_only_dict_keeps_the_legacy_key_set(self, grid_profiles):
        advice = Objective.tradeoff().evaluate(grid_profiles[1][1])
        assert set(advice.as_dict()) == LEGACY_KEYS

    def test_grid_dict_adds_exactly_the_two_memory_keys(self, grid_profiles):
        advice = Objective.tradeoff().evaluate(stack_memory_rows(grid_profiles))
        out = advice.as_dict()
        assert set(out) == LEGACY_KEYS | {"mem_freq_mhz", "pareto_pairs_mhz"}
        assert out["mem_freq_mhz"] == advice.mem_freq_mhz
        assert all(len(p) == 2 for p in out["pareto_pairs_mhz"])

    def test_grid_dict_is_json_serializable(self, grid_profiles):
        import json

        advice = Objective.tradeoff().evaluate(stack_memory_rows(grid_profiles))
        assert json.loads(json.dumps(advice.as_dict()))["mem_freq_mhz"] == 810.0


def grid_dataset():
    """Analytic 2-D workload: memory clock is the trailing feature."""
    ds = EnergyDataset(feature_names=("size", "f_mem_mhz"))
    for size in (1.0, 2.0, 4.0, 8.0):
        for mem in (800.0, 1000.0, 1200.0):
            for f in TRAIN_FREQS:
                ds.add(
                    EnergySample(
                        features=(size, mem),
                        freq_mhz=f,
                        time_s=size * (1000.0 / f + 500.0 / mem),
                        energy_j=size * (20.0 + f / 100.0 + mem / 200.0),
                    )
                )
    return ds


@pytest.fixture(scope="module")
def grid_model():
    model = DomainSpecificModel(
        ("size", "f_mem_mhz"),
        regressor_factory=lambda: RandomForestRegressor(n_estimators=8, random_state=0),
        baseline_freq_mhz=1282.0,
    )
    return model.fit(grid_dataset())


MEM_GRID = (800.0, 1000.0, 1200.0)


@pytest.fixture
def grid_service(grid_model):
    """Build a service over ``TRAIN_FREQS`` x a memory-clock grid."""

    def make(mem_freqs_mhz=MEM_GRID):
        return AdvisorService(
            grid_model,
            np.asarray(TRAIN_FREQS),
            model_digest="grid-digest",
            mem_freqs_mhz=mem_freqs_mhz,
        )

    return make


class TestAdviseGrid:
    def test_returns_a_pair_from_the_candidate_grid(self, grid_service):
        advice = grid_service([800.0, 1000.0, 1200.0]).advise([4.0])
        assert advice.freq_mhz in TRAIN_FREQS
        assert advice.mem_freq_mhz in (800.0, 1000.0, 1200.0)
        assert advice.pareto_pairs_mhz

    def test_requests_counter_increments(self, grid_service):
        service = grid_service([800.0, 1200.0])
        before = service.stats.requests
        service.advise([4.0])
        assert service.stats.requests == before + 1

    def test_deterministic(self, grid_service):
        # Two services, so the second answer is recomputed, not cached.
        a = grid_service([800.0, 1000.0, 1200.0]).advise([2.0])
        b = grid_service([800.0, 1000.0, 1200.0]).advise([2.0])
        assert a == b

    def test_domain_feature_arity_is_checked(self, grid_service):
        # The model's trailing feature is the memory clock; passing it in
        # `features` too must be rejected, not silently shifted.
        with pytest.raises(ServingError, match="memory clock"):
            grid_service([800.0]).advise([4.0, 1200.0])

    def test_empty_memory_grid_is_rejected(self, grid_service):
        with pytest.raises(ServingError, match="non-empty"):
            grid_service([])

    def test_objective_error_still_counts_the_request(self, grid_service):
        service = grid_service([800.0])
        before = (service.stats.requests, service.stats.errors)
        with pytest.raises(ServingError):
            service.advise([4.0], objective=Objective.min_energy_deadline(1e-9))
        assert service.stats.requests == before[0] + 1
        assert service.stats.errors == before[1] + 1

    def test_core_only_model_rejects_grid_requests(self, fitted_model):
        service = AdvisorService(
            fitted_model,
            np.asarray(TRAIN_FREQS),
            model_digest="flat-digest",
            mem_freqs_mhz=[800.0],
        )
        with pytest.raises(ServingError):
            service.advise([4.0])


def _pinned(objective, freq, time_s, energy_j, speedup, norm_energy, on_front, mem):
    return Advice(
        objective=objective,
        freq_mhz=freq,
        predicted_time_s=time_s,
        predicted_energy_j=energy_j,
        predicted_speedup=speedup,
        predicted_normalized_energy=norm_energy,
        pareto_freqs_mhz=(400.0, 700.0, 1000.0, 1282.0, 1500.0),
        on_pareto_front=on_front,
        mem_freq_mhz=mem,
        pareto_pairs_mhz=(
            (400.0, 800.0), (700.0, 800.0), (1000.0, 800.0), (1282.0, 800.0), (1500.0, 1200.0),
        ),
    )


#: 2-D answers of the per-memory-clock ``predict_tradeoff`` advice path;
#: the batched, cached path must reproduce them bitwise.
PINNED_GRID_ADVICE = [
    (2.0, Objective.tradeoff(), _pinned(
        "tradeoff", 1500.0, 2.282451032019666, 80.18123044139988,
        1.1037098626802213, 1.0563422252046148, True, 1200.0)),
    (2.0, Objective.min_energy_deadline(6.0), _pinned(
        "min_energy_deadline", 400.0, 5.978908998569361, 58.24630776952173,
        0.42667706708268327, 0.7667900581702803, False, 1000.0)),
    (2.0, Objective.max_speedup_power(20.0), _pinned(
        "max_speedup_power", 700.0, 4.0525896772098955, 62.486431030986274,
        0.6841891066947026, 0.841933731667572, True, 800.0)),
    (4.0, Objective.tradeoff(), _pinned(
        "tradeoff", 1500.0, 4.539976314842058, 161.47581764888886,
        1.1037098626802213, 1.0563422252046148, True, 1200.0)),
    (4.0, Objective.min_energy_deadline(6.0), _pinned(
        "min_energy_deadline", 1000.0, 5.882235562840784, 141.36266392821622,
        0.8533541341653665, 0.9254362771020624, False, 1000.0)),
    (4.0, Objective.max_speedup_power(20.0), _pinned(
        "max_speedup_power", 700.0, 8.522044732568771, 123.40799558240035,
        0.6841891066947026, 0.841933731667572, True, 800.0)),
]


class TestGridServing:
    @pytest.mark.parametrize("size, objective, expected", PINNED_GRID_ADVICE)
    def test_advice_is_pinned(self, grid_service, size, objective, expected):
        assert grid_service().advise([size], objective) == expected

    def test_repeated_request_is_a_cache_hit(self, grid_service):
        service = grid_service()
        first = service.advise([2.0])
        again = service.advise([2.0])
        assert again == first
        assert service.cache.hits == 1
        assert len(service.cache) == 1
        assert service.stats.cache_hits == 1

    def test_concurrent_requests_are_micro_batched(self, grid_service):
        service = grid_service()
        barrier = threading.Barrier(2)
        answers = {}

        def ask(size):
            barrier.wait(timeout=10)
            answers[size] = service.advise([size])

        threads = [threading.Thread(target=ask, args=(s,)) for s in (2.0, 4.0)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert service.stats.batches >= 1
        assert service.stats.evaluated == 2
        serial = grid_service()
        assert answers == {size: serial.advise([size]) for size in (2.0, 4.0)}

    def test_concurrent_load_equals_serial_replay(self, grid_service):
        requests = synthetic_requests(
            [4.0],
            60,
            pool_size=6,
            objectives=[Objective.tradeoff(), Objective.max_speedup_power(20.0)],
            seed=5,
        )
        serial = run_load(grid_service(), requests, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            service = grid_service()
            concurrent = run_load(service, requests, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial
        assert service.stats.requests == 60
        assert service.stats.cache_hits + service.stats.evaluated == 60

    def test_swap_model_keeps_the_memory_grid(self, grid_service, grid_model):
        service = grid_service()
        before = service.advise([4.0])
        service.swap_model(grid_model, "grid-digest-v2")
        assert np.array_equal(service.mem_freqs_mhz, MEM_GRID)
        # A new digest misses the cache, so this is a fresh 2-D evaluation.
        assert service.advise([4.0]) == before
        assert service.cache.hits == 0


class TestServingGridValidation:
    @pytest.mark.parametrize("freqs", [[-300.0, 900.0], [0.0, 900.0], [300.0, np.nan]])
    def test_non_physical_core_clocks_are_rejected(self, fitted_model, freqs):
        with pytest.raises(ServingError, match="finite clocks > 0"):
            AdvisorService(fitted_model, freqs)

    @pytest.mark.parametrize("mems", [[-5.0], [np.nan]])
    def test_non_physical_memory_clocks_are_rejected(self, grid_model, mems):
        with pytest.raises(ServingError, match="finite clocks > 0"):
            AdvisorService(grid_model, np.asarray(TRAIN_FREQS), mem_freqs_mhz=mems)

    @pytest.mark.parametrize(
        "flags", [["--freq-min", "-100"], ["--mem-freqs", "-5"]]
    )
    def test_cli_rejects_non_physical_clocks(self, registry, capsys, flags):
        rc = main(
            ["advise", "--registry", str(registry.root), "--name", "toy",
             "--features", "4.0", *flags]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


def test_advice_equality_distinguishes_memory_clocks(grid_profiles=None):
    # Frozen-dataclass equality covers the new fields: the same core
    # pick at two memory clocks is two different answers.
    kw = dict(
        objective="tradeoff",
        freq_mhz=900.0,
        predicted_time_s=1.0,
        predicted_energy_j=10.0,
        predicted_speedup=1.0,
        predicted_normalized_energy=1.0,
        pareto_freqs_mhz=(900.0,),
        on_pareto_front=True,
    )
    assert Advice(**kw, mem_freq_mhz=810.0) != Advice(**kw, mem_freq_mhz=1215.0)
    assert Advice(**kw) == Advice(**kw)
