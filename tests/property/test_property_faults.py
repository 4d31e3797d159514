"""Property-based tests for the fault-injection layer (hypothesis).

Two promises get explored here rather than spot-checked:

* **Determinism** — every fault decision is a pure function of
  ``(plan seed, scope, site, occurrence)``; rebuilding the injector or
  round-tripping the plan through JSON must reproduce the exact firing
  sequence.
* **Recovery bit-identity** — for any plan made of *bounded* transient
  specs (explicit occurrence lists), a retry budget of
  ``plan.max_bounded_fires()`` is provably sufficient, and the recovered
  measurement must equal the fault-free one bit for bit.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    TRANSIENT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    fault_hash_unit,
)
from repro.hw.specs import make_v100_spec
from repro.ligen.app import LigenApplication
from repro.runtime.engine import MeasurementTask, execute_task, execute_task_resilient

sites_st = st.sampled_from(
    ["gpu.launch", "gpu.set_frequency", "sensor.time", "sensor.energy", "worker"]
)

bounded_spec_st = st.builds(
    FaultSpec,
    kind=st.sampled_from(sorted(TRANSIENT_KINDS)),
    occurrences=st.lists(
        st.integers(min_value=0, max_value=4), min_size=1, max_size=3, unique=True
    ).map(tuple),
)

bounded_plan_st = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    specs=st.lists(bounded_spec_st, min_size=1, max_size=3).map(tuple),
)

probability_plan_st = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    specs=st.lists(
        st.builds(
            FaultSpec,
            kind=st.sampled_from(sorted(TRANSIENT_KINDS)),
            probability=st.floats(min_value=0.01, max_value=0.9),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
)


class TestHashUnit:
    @given(st.integers(min_value=0, max_value=2**63), sites_st, st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_unit_interval_and_deterministic(self, seed, site, occurrence):
        u = fault_hash_unit(seed, site, occurrence)
        assert 0.0 <= u < 1.0
        assert u == fault_hash_unit(seed, site, occurrence)

    @given(st.integers(min_value=0, max_value=2**31), sites_st)
    @settings(max_examples=100, deadline=None)
    def test_occurrences_decorrelate(self, seed, site):
        draws = [fault_hash_unit(seed, site, occ) for occ in range(32)]
        assert len(set(draws)) == len(draws)


def decision_sequence(plan, scope="task:1", draws=48):
    inj = FaultInjector(plan, scope=scope)
    return [
        [inj.check(site, *sorted(TRANSIENT_KINDS)) is not None for _ in range(draws)]
        for site in ("gpu.launch", "sensor.time")
    ]


class TestInjectorDeterminism:
    @given(probability_plan_st)
    @settings(max_examples=50, deadline=None)
    def test_rebuilt_injector_reproduces_decisions(self, plan):
        assert decision_sequence(plan) == decision_sequence(plan)

    @given(probability_plan_st)
    @settings(max_examples=50, deadline=None)
    def test_json_round_trip_preserves_decisions(self, plan):
        clone = FaultPlan.from_record(json.loads(plan.to_json()))
        assert clone.fingerprint() == plan.fingerprint()
        assert decision_sequence(clone) == decision_sequence(plan)

    @given(bounded_plan_st)
    @settings(max_examples=50, deadline=None)
    def test_bounded_plans_fire_at_most_their_budget(self, plan):
        # Drive each kind at the sites the engine actually consults it
        # from; the budget must cover every possible scheduled fire.
        kind_sites = {
            "launch_failure": ("gpu.launch",),
            "freq_rejection": ("gpu.set_frequency",),
            "sensor_dropout": ("sensor.time", "sensor.energy"),
            "worker_crash": ("worker",),
        }
        inj = FaultInjector(plan, scope="task:1")
        for kind, sites in kind_sites.items():
            for site in sites:
                for _ in range(16):
                    inj.check(site, kind)
        assert inj.fault_count <= plan.max_bounded_fires()


def task_for(plan, max_retries=2):
    return MeasurementTask(
        app=LigenApplication(16, 31, 4),
        spec=make_v100_spec(),
        freq_mhz=900.0,
        repetitions=1,
        seed=17,
        fault_plan=plan,
        max_attempts=max_retries + 1,
    )


class TestRecoveryBitIdentity:
    @given(bounded_plan_st)
    @settings(max_examples=25, deadline=None)
    def test_sufficient_budget_recovers_fault_free_bits(self, plan):
        # Every failed attempt consumes at least one bounded fire, so a
        # budget of max_bounded_fires() guarantees one clean attempt.
        clean = execute_task(task_for(None))
        outcome = execute_task_resilient(
            task_for(plan, plan.max_bounded_fires())
        )
        assert not outcome.quarantined
        assert outcome.measurement == clean

    @given(bounded_plan_st)
    @settings(max_examples=15, deadline=None)
    def test_resilient_outcome_is_deterministic(self, plan):
        first = execute_task_resilient(task_for(plan, plan.max_bounded_fires()))
        second = execute_task_resilient(task_for(plan, plan.max_bounded_fires()))
        assert first == second
