"""Unit tests for the advice objectives (pure prediction -> advice)."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.modeling.domain import TradeoffPrediction
from repro.serving import OBJECTIVE_KINDS, Objective


def profile() -> TradeoffPrediction:
    """A hand-built five-point profile with known optima.

    freq:     400     700    1000    1282    1500
    time:    10.0     6.0     4.0     3.0     2.5
    energy:  40.0    33.0    36.0    45.0    60.0
    power:    4.0     5.5     9.0    15.0    24.0
    """
    freqs = np.array([400.0, 700.0, 1000.0, 1282.0, 1500.0])
    times = np.array([10.0, 6.0, 4.0, 3.0, 2.5])
    energies = np.array([40.0, 33.0, 36.0, 45.0, 60.0])
    baseline_t, baseline_e = 3.0, 45.0
    return TradeoffPrediction(
        freqs_mhz=freqs,
        times_s=times,
        energies_j=energies,
        speedups=baseline_t / times,
        normalized_energies=energies / baseline_e,
        baseline_freq_mhz=1282.0,
    )


class TestTradeoff:
    def test_picks_min_edp_point(self):
        advice = Objective.tradeoff().evaluate(profile())
        p = profile()
        expected = int(np.argmin(p.normalized_energies / p.speedups))
        assert advice.freq_mhz == p.freqs_mhz[expected]
        assert advice.objective == "tradeoff"

    def test_pick_is_on_predicted_front(self):
        advice = Objective.tradeoff().evaluate(profile())
        assert advice.on_pareto_front
        assert advice.freq_mhz in advice.pareto_freqs_mhz


class TestDeadline:
    def test_least_energy_meeting_deadline(self):
        # Deadline 4.0 admits 1000/1282/1500; min energy there is 36.0 @ 1000.
        advice = Objective.min_energy_deadline(4.0).evaluate(profile())
        assert advice.freq_mhz == 1000.0
        assert advice.predicted_energy_j == 36.0

    def test_exact_boundary_is_feasible(self):
        advice = Objective.min_energy_deadline(10.0).evaluate(profile())
        assert advice.freq_mhz == 700.0  # 33 J beats every other feasible point

    def test_infeasible_reports_fastest(self):
        with pytest.raises(ServingError, match="fastest predicted time: 2.5"):
            Objective.min_energy_deadline(1.0).evaluate(profile())

    def test_invalid_deadline_rejected(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ServingError):
                Objective.min_energy_deadline(bad)


class TestPowerCap:
    def test_max_speedup_under_cap(self):
        # Cap 10 W admits 400/700/1000; the fastest of those is 1000 MHz.
        advice = Objective.max_speedup_power(10.0).evaluate(profile())
        assert advice.freq_mhz == 1000.0

    def test_infeasible_reports_lowest_power(self):
        with pytest.raises(ServingError, match="lowest predicted power: 4"):
            Objective.max_speedup_power(1.0).evaluate(profile())

    def test_invalid_cap_rejected(self):
        with pytest.raises(ServingError):
            Objective.max_speedup_power(-5.0)


class TestFromKind:
    def test_round_trips_every_kind(self):
        assert Objective.from_kind("tradeoff") == Objective.tradeoff()
        assert Objective.from_kind(
            "min_energy_deadline", deadline_s=2.0
        ) == Objective.min_energy_deadline(2.0)
        assert Objective.from_kind(
            "max_speedup_power", power_w=30.0
        ) == Objective.max_speedup_power(30.0)

    def test_missing_parameters_rejected(self):
        with pytest.raises(ServingError, match="requires deadline_s"):
            Objective.from_kind("min_energy_deadline")
        with pytest.raises(ServingError, match="requires power_w"):
            Objective.from_kind("max_speedup_power")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServingError, match="unknown objective"):
            Objective.from_kind("make_it_fast")

    def test_kind_catalog_matches_cli(self):
        assert set(OBJECTIVE_KINDS) == {
            "tradeoff",
            "min_energy_deadline",
            "max_speedup_power",
        }


class TestConstruction:
    """Every way to build an objective is checked, not only the factories."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"kind": "make_it_fast"}, id="unknown-kind"),
            pytest.param({"kind": 3}, id="non-string-kind"),
            pytest.param({"kind": "min_energy_deadline"}, id="missing-deadline"),
            pytest.param({"kind": "max_speedup_power"}, id="missing-power"),
            pytest.param({"kind": "tradeoff", "deadline_s": 3.0}, id="tradeoff-with-deadline"),
            pytest.param(
                {"kind": "min_energy_deadline", "deadline_s": 3.0, "power_w": 100.0},
                id="deadline-with-power",
            ),
            pytest.param(
                {"kind": "max_speedup_power", "power_w": 100.0, "deadline_s": 3.0},
                id="power-with-deadline",
            ),
            pytest.param({"kind": "min_energy_deadline", "deadline_s": True}, id="bool"),
            pytest.param({"kind": "max_speedup_power", "power_w": np.True_}, id="numpy-bool"),
            pytest.param({"kind": "min_energy_deadline", "deadline_s": "3"}, id="string"),
            pytest.param({"kind": "min_energy_deadline", "deadline_s": 1 + 2j}, id="complex"),
            pytest.param({"kind": "min_energy_deadline", "deadline_s": 10**400}, id="huge-int"),
            pytest.param({"kind": "max_speedup_power", "power_w": float("nan")}, id="nan"),
            pytest.param({"kind": "max_speedup_power", "power_w": float("inf")}, id="inf"),
            pytest.param({"kind": "max_speedup_power", "power_w": 0}, id="zero"),
            pytest.param({"kind": "max_speedup_power", "power_w": -5.0}, id="negative"),
        ],
    )
    def test_bad_objectives_raise_serving_errors(self, kwargs):
        with pytest.raises(ServingError):
            Objective(**kwargs)

    def test_factories_refuse_a_bool(self):
        with pytest.raises(ServingError):
            Objective.min_energy_deadline(True)
        with pytest.raises(ServingError):
            Objective.max_speedup_power(False)

    def test_a_hand_built_objective_equals_the_factorys(self):
        built = Objective(kind="min_energy_deadline", deadline_s=np.int64(2))
        assert built == Objective.min_energy_deadline(2.0)
        assert repr(built) == repr(Objective.min_energy_deadline(2.0))
        assert Objective() == Objective.tradeoff()


class TestDeterminism:
    def test_equal_profiles_equal_advice(self):
        for objective in (
            Objective.tradeoff(),
            Objective.min_energy_deadline(4.0),
            Objective.max_speedup_power(10.0),
        ):
            assert objective.evaluate(profile()) == objective.evaluate(profile())

    def test_describe_covers_every_kind(self):
        assert "trade-off" in Objective.tradeoff().describe()
        assert "deadline" in Objective.min_energy_deadline(1.0).describe()
        assert "power cap" in Objective.max_speedup_power(1.0).describe()
