"""Property-based tests for spec round-trips and fingerprint stability.

The spec subsystem promises that identity follows *content*: any spec
that survives validation can be serialized to canonical JSON, parsed
back, and rebuilt into an equal object with the same fingerprint. That
promise is load-bearing for the result cache and the registry, so it is
explored with hypothesis rather than spot-checked.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import TRANSIENT_KINDS, FaultPlan, FaultSpec
from repro.runtime.seeding import canonical_json, stable_digest
from repro.specs import CampaignSpec, ScenarioSpec

# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------
fault_spec_st = st.one_of(
    st.builds(
        FaultSpec,
        kind=st.sampled_from(sorted(TRANSIENT_KINDS)),
        occurrences=st.lists(
            st.integers(min_value=0, max_value=6), min_size=1, max_size=3, unique=True
        ).map(tuple),
    ),
    st.builds(
        FaultSpec,
        kind=st.sampled_from(sorted(TRANSIENT_KINDS)),
        probability=st.floats(min_value=0.01, max_value=0.9),
    ),
)

fault_plan_st = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    specs=st.lists(fault_spec_st, min_size=1, max_size=4).map(tuple),
)


@settings(max_examples=50, deadline=None)
@given(plan=fault_plan_st)
def test_fault_plan_round_trips_through_canonical_json(plan):
    text = canonical_json(plan.as_record())
    again = FaultPlan.from_record(json.loads(text))
    assert again == plan
    assert again.fingerprint() == plan.fingerprint()
    # And the canonical text itself is a fixed point.
    assert canonical_json(again.as_record()) == text


# ---------------------------------------------------------------------------
# campaign specs
# ---------------------------------------------------------------------------
grids_st = st.lists(
    st.tuples(
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=2, max_value=32),
        st.integers(min_value=2, max_value=32),
    ).map(list),
    min_size=1,
    max_size=3,
)

freqs_mhz_st = st.lists(
    st.floats(min_value=100.0, max_value=2000.0, allow_nan=False),
    min_size=1,
    max_size=4,
    unique=True,
)

sweep_st = st.one_of(
    st.fixed_dictionaries(
        {
            "freq_count": st.integers(min_value=1, max_value=8),
            "repetitions": st.integers(min_value=1, max_value=5),
        }
    ),
    st.fixed_dictionaries(
        {
            "freqs_mhz": freqs_mhz_st,
            "repetitions": st.integers(min_value=1, max_value=5),
        }
    ),
)

campaign_record_st = st.fixed_dictionaries(
    {
        "format": st.just("repro.campaign"),
        "schema_version": st.just(1),
        "app": st.fixed_dictionaries(
            {
                "kind": st.just("cronos"),
                "grids": grids_st,
                "steps": st.integers(min_value=1, max_value=100),
            }
        ),
        "device": st.sampled_from(["v100", "mi100", "max1100"]),
        "sweep": sweep_st,
        "engine": st.fixed_dictionaries(
            {
                "seed": st.integers(min_value=0, max_value=2**31 - 1),
                "jobs": st.just(1),
                "method": st.sampled_from(["serial", "replay"]),
                "max_retries": st.integers(min_value=0, max_value=5),
            }
        ),
    }
)


@settings(max_examples=50, deadline=None)
@given(record=campaign_record_st)
def test_campaign_spec_round_trips_through_canonical_json(record):
    spec = CampaignSpec.from_record(record)
    text = canonical_json(spec.as_record())
    again = CampaignSpec.from_record(json.loads(text))
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()
    assert canonical_json(again.as_record()) == text


@settings(max_examples=50, deadline=None)
@given(record=campaign_record_st)
def test_campaign_fingerprint_is_digest_of_canonical_record(record):
    spec = CampaignSpec.from_record(record)
    assert spec.fingerprint() == stable_digest(spec.as_record())


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(record=campaign_record_st, plan=fault_plan_st, name=st.text(min_size=1, max_size=20))
def test_scenario_round_trips_with_inlined_parts(record, plan, name):
    scenario = ScenarioSpec(
        name=name,
        campaign=CampaignSpec.from_record(record),
        fault_plan=plan,
    )
    again = ScenarioSpec.from_record(json.loads(canonical_json(scenario.as_record())))
    assert again == scenario
    assert again.fingerprint() == scenario.fingerprint()
