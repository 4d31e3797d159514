"""Hypothesis fuzzing of the spec seam: malformed records, round trips.

Each case starts from a real spec record (the examples, the valid
fixtures, and a registry manifest built here) and applies one to three
mutations: a dropped key or list element, an extra key, a value swapped
for ``null``, a bool, NaN, a finite extreme (``±1e300``, ``0``), a list
or an object, or a ``format`` tag that is not a string. The
collect-then-raise contract says what may happen next:

- the format's loader either loads or raises its typed error —
  ``SpecError`` (``SpecValidationError`` included) for spec records and
  device tables (``load_device_table``), ``ConfigurationError`` for
  fault plans, ``RegistryError`` for manifests a registry reads;
- ``check_record`` returns diagnostics and never raises, and it reports
  an error for every record the loader rejects;
- every record that loads round-trips: ``from_record(s.as_record())``
  equals ``s`` and keeps its fingerprint (device tables: the rebuilt
  table keeps the spec's signature; manifests: ``as_dict`` round-trips).
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import has_errors
from repro.errors import ConfigurationError, RegistryError, SpecError
from repro.faults.plan import FaultPlan
from repro.runtime.seeding import stable_digest
from repro.serving.registry import ModelManifest, ModelRegistry
from repro.specs import CampaignSpec, FleetSpec, LifecycleSpec, ScenarioSpec, check_record
from repro.specs.device_table import device_table_record, load_device_table

REPO = Path(__file__).resolve().parent.parent.parent
EXAMPLES = REPO / "examples" / "specs"
VALID = REPO / "tests" / "specs" / "fixtures" / "valid"

MIGRATION = REPO / "tests" / "specs" / "fixtures" / "migration"
#: Stand-in path naming the generated manifest seed (test ids only).
MANIFEST_SEED = Path("generated") / "model_manifest"
MANIFEST = ModelManifest(
    name="adv",
    version=1,
    app="ligen",
    feature_names=("f_ligands", "f_fragments", "f_atoms"),
    baseline_freq_mhz=1282.1076923076923,
    artifact_sha256="0" * 64,
    artifact_bytes=4096,
    device_signature_digest="1" * 64,
    train_fingerprint="2" * 64,
)


def _manifest_record(manifest):
    """The envelope ``ModelRegistry.register`` writes for ``manifest``."""
    payload = manifest.as_dict()
    return {
        "format": "repro.model_manifest",
        "schema_version": 1,
        "manifest": payload,
        "digest": stable_digest(payload),
    }


def _write_json(record, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record), encoding="utf-8")


def _load_device_table(record, base_dir):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "device.json"
        _write_json(record, path)
        return load_device_table(path)


def _load_manifest(record, base_dir):
    """Read ``record`` back the way a registry reads a stored manifest."""
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(tmp)
        _write_json(record, registry.manifest_path(MANIFEST.name, MANIFEST.version))
        return registry.manifest(MANIFEST.name, MANIFEST.version)


def _spec_round_trip(spec):
    again = type(spec).from_record(spec.as_record())
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()


def _device_round_trip(spec):
    again = _load_device_table(device_table_record(spec), None)
    assert again.signature() == spec.signature()


def _manifest_round_trip(manifest):
    assert ModelManifest.from_dict(manifest.as_dict()) == manifest


#: format -> (loader(record, base_dir), the error family its loader may
#: raise, round-trip check, seed spec files)
FORMATS = {
    "repro.campaign": (
        CampaignSpec.from_record,
        SpecError,
        _spec_round_trip,
        [EXAMPLES / "campaign_cronos_quick.json", EXAMPLES / "campaign_mhd_quick.json",
         VALID / "campaign_quick.json"],
    ),
    "repro.scenario": (
        ScenarioSpec.from_record,
        SpecError,
        _spec_round_trip,
        [EXAMPLES / "scenario_chaos.json", EXAMPLES / "scenario_serving.json",
         VALID / "scenario.json"],
    ),
    "repro.fleet": (
        FleetSpec.from_record, SpecError, _spec_round_trip, [EXAMPLES / "fleet_smoke.json"]
    ),
    "repro.lifecycle": (
        LifecycleSpec.from_record,
        SpecError,
        _spec_round_trip,
        [EXAMPLES / "lifecycle_smoke.json"],
    ),
    "repro.fault_plan": (
        lambda record, base_dir: FaultPlan.from_record(record),
        ConfigurationError,
        _spec_round_trip,
        [VALID / "fault_plan.json", REPO / "benchmarks" / "output" / "chaos_plan.json"],
    ),
    "repro.device_spec": (
        _load_device_table,
        SpecError,
        _device_round_trip,
        [EXAMPLES / "device_v100.json", EXAMPLES / "device_a100.json",
         EXAMPLES / "device_mi250.json", MIGRATION / "device_v100_v1.json"],
    ),
    "repro.model_manifest": (_load_manifest, RegistryError, _manifest_round_trip, [MANIFEST_SEED]),
}


def _seed_record(path):
    if path == MANIFEST_SEED:
        return _manifest_record(MANIFEST)
    return json.loads(path.read_text(encoding="utf-8"))


SEEDS = [
    (fmt, path, _seed_record(path))
    for fmt, (_, _, _, paths) in FORMATS.items()
    for path in paths
]

# Drawn values are copied: a later mutation may edit one in place.
JUNK = st.sampled_from(
    [None, True, False, math.nan, 1e300, -1e300, 0, [], [1.0], {}, {"x": 1}]
).map(copy.deepcopy)
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
    return FORMATS[fmt][0](record, base_dir=base_dir)


def _assert_round_trips(fmt, spec):
    FORMATS[fmt][2](spec)


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
