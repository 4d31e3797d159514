"""Hypothesis fuzzing of the spec seam: malformed records, round trips.

Each case starts from a real spec record (the examples and the valid
fixtures) and applies one to three mutations: a dropped key or list
element, an extra key, a value swapped for ``null``, a bool, NaN, a
list or an object, or a ``format`` tag that is not a string. The
collect-then-raise contract says what may happen next:

- ``from_record`` either loads or raises its typed error —
  ``SpecError`` (``SpecValidationError`` included), or
  ``ConfigurationError`` for fault plans;
- ``check_record`` returns diagnostics and never raises, and it reports
  an error for every record ``from_record`` rejects;
- every record that loads round-trips: ``from_record(s.as_record())``
  equals ``s`` and keeps its fingerprint.
"""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import has_errors
from repro.errors import ConfigurationError, SpecError
from repro.faults.plan import FaultPlan
from repro.specs import CampaignSpec, FleetSpec, LifecycleSpec, ScenarioSpec, check_record

REPO = Path(__file__).resolve().parent.parent.parent
EXAMPLES = REPO / "examples" / "specs"
VALID = REPO / "tests" / "specs" / "fixtures" / "valid"

#: format -> (loader, the error family its loader may raise, seed spec files)
FORMATS = {
    "repro.campaign": (
        CampaignSpec.from_record,
        SpecError,
        [EXAMPLES / "campaign_cronos_quick.json", EXAMPLES / "campaign_mhd_quick.json",
         VALID / "campaign_quick.json"],
    ),
    "repro.scenario": (
        ScenarioSpec.from_record,
        SpecError,
        [EXAMPLES / "scenario_chaos.json", EXAMPLES / "scenario_serving.json",
         VALID / "scenario.json"],
    ),
    "repro.fleet": (FleetSpec.from_record, SpecError, [EXAMPLES / "fleet_smoke.json"]),
    "repro.lifecycle": (
        LifecycleSpec.from_record, SpecError, [EXAMPLES / "lifecycle_smoke.json"]
    ),
    "repro.fault_plan": (
        FaultPlan.from_record,
        ConfigurationError,
        [VALID / "fault_plan.json", REPO / "benchmarks" / "output" / "chaos_plan.json"],
    ),
}

SEEDS = [
    (fmt, path, json.loads(path.read_text(encoding="utf-8")))
    for fmt, (_, _, paths) in FORMATS.items()
    for path in paths
]

# Drawn values are copied: a later mutation may edit one in place.
JUNK = st.sampled_from([None, True, False, math.nan, [], [1.0], {}, {"x": 1}]).map(copy.deepcopy)
NON_STRING_FORMAT = st.sampled_from(
    [None, 1, True, ["repro.fleet"], {"format": "repro.fleet"}]
).map(copy.deepcopy)


def _paths(node, prefix=()):
    """Every path in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _node(record, path):
    for part in path:
        record = record[part]
    return record


def _mutate(data, record):
    record = copy.deepcopy(record)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        op = data.draw(st.sampled_from(["drop", "extra", "swap", "format"]))
        if op == "format":
            if isinstance(record, dict):
                record["format"] = data.draw(NON_STRING_FORMAT)
            continue
        path = data.draw(st.sampled_from(list(_paths(record))))
        node = _node(record, path)
        if op == "extra":
            if isinstance(node, dict):
                node["unexpected_key"] = data.draw(JUNK)
        elif path and op == "drop":
            del _node(record, path[:-1])[path[-1]]
        elif path:
            _node(record, path[:-1])[path[-1]] = data.draw(JUNK)
    return record


def _load(fmt, record, base_dir):
    loader = FORMATS[fmt][0]
    if fmt == "repro.fault_plan":
        return loader(record)
    return loader(record, base_dir=base_dir)


def _assert_round_trips(fmt, spec):
    again = _load(fmt, spec.as_record(), None)
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()


@pytest.mark.parametrize(
    "fmt,path,seed", SEEDS, ids=[f"{p.parent.name}/{p.stem}" for _, p, _ in SEEDS]
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_malformed_records_raise_typed_errors_and_lint_without_raising(
    fmt, path, seed, data
):
    record = _mutate(data, seed)
    base_dir = str(path.parent)
    diagnostics = check_record(record, file=path.name, base_dir=base_dir)
    assert isinstance(diagnostics, list)
    try:
        spec = _load(fmt, record, base_dir)
    except FORMATS[fmt][1]:
        assert has_errors(diagnostics)
    else:
        _assert_round_trips(fmt, spec)


@pytest.mark.parametrize(
    "fmt,path,seed", SEEDS, ids=[f"{p.parent.name}/{p.stem}" for _, p, _ in SEEDS]
)
def test_seed_records_load_and_round_trip(fmt, path, seed):
    assert not has_errors(check_record(seed, file=path.name, base_dir=str(path.parent)))
    _assert_round_trips(fmt, _load(fmt, seed, str(path.parent)))


@settings(max_examples=40, deadline=None)
@given(
    probability=st.sampled_from([0.0, 0.05]),
    repair_ticks=st.integers(min_value=1, max_value=5),
)
def test_fleet_faults_group_round_trips(probability, repair_ticks):
    record = json.loads((EXAMPLES / "fleet_smoke.json").read_text(encoding="utf-8"))
    record["faults"] = {"gpu_failure_prob": probability, "repair_ticks": repair_ticks}
    spec = FleetSpec.from_record(record)
    _assert_round_trips("repro.fleet", spec)
    # A zero failure probability is an absent group: nothing to repair.
    assert spec.repair_ticks == (repair_ticks if probability > 0 else 10)
