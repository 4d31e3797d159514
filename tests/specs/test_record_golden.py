"""Golden-file test pinning every spec's canonical record and fingerprint.

``golden/spec_records.json`` holds ``json.dumps(spec.as_record())`` (key
order included) and ``spec.fingerprint()`` for every loadable spec under
``examples/specs/`` and ``tests/specs/fixtures/valid/``, plus fleet specs
built from keyword arguments the way the benchmark suite builds them.
Any change to the record plumbing that alters a record byte or a
fingerprint fails here. Regenerate only after a deliberate format
change:

    PYTHONPATH=src python -m tests.specs.test_record_golden
"""

import json
from pathlib import Path

from repro.faults.plan import FaultPlan
from repro.specs import CampaignSpec, FleetSpec, LifecycleSpec, ScenarioSpec
from repro.specs.fleet import FleetJobType

HERE = Path(__file__).parent
REPO = HERE.parent.parent
GOLDEN = HERE / "golden" / "spec_records.json"
SPEC_DIRS = (REPO / "examples" / "specs", HERE / "fixtures" / "valid")

LOADERS = {
    "repro.campaign": CampaignSpec.load,
    "repro.scenario": ScenarioSpec.load,
    "repro.fleet": FleetSpec.load,
    "repro.lifecycle": LifecycleSpec.load,
    "repro.fault_plan": FaultPlan.load,
}

JOB_TYPES = (
    FleetJobType(name="ligen-large", features=(10000.0, 20.0, 89.0), deadline_s=4.0, weight=3.0),
    FleetJobType(name="ligen-medium", features=(256.0, 20.0, 89.0), deadline_s=1.0, weight=1.0),
)


def keyword_specs():
    """Fleet specs built from flat keyword arguments, as the benchmark suite does."""
    return {
        "kwargs:fleet-loaded": FleetSpec(
            name="fleet-loaded",
            gpus=1024,
            ticks=100,
            job_types=JOB_TYPES,
            arrival_rate_per_tick=800.0,
            tick_s=1.0,
            seed=1234567,
            gpu_failure_prob=0.0005,
            repair_ticks=10,
        ),
        "kwargs:fleet-identity": FleetSpec(
            name="fleet-identity",
            gpus=16,
            ticks=60,
            job_types=JOB_TYPES,
            arrival_rate_per_tick=3.0,
            arrival_horizon_ticks=45,
            tick_s=0.5,
            seed=1234567,
            gpu_failure_prob=0.01,
            repair_ticks=6,
        ),
        "kwargs:fleet-defaults": FleetSpec(
            name="fleet-defaults", gpus=2, ticks=3, job_types=JOB_TYPES[:1],
            arrival_rate_per_tick=1.0,
        ),
    }


def current_records():
    specs = {}
    for spec_dir in SPEC_DIRS:
        for path in sorted(spec_dir.glob("*.json")):
            fmt = json.loads(path.read_text(encoding="utf-8")).get("format")
            if fmt in LOADERS:
                specs[path.relative_to(REPO).as_posix()] = LOADERS[fmt](path)
    specs.update(keyword_specs())
    return {
        name: {"record": json.dumps(spec.as_record()), "fingerprint": spec.fingerprint()}
        for name, spec in specs.items()
    }


def test_records_and_fingerprints_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = current_records()
    assert sorted(current) == sorted(golden)
    for name, entry in golden.items():
        assert current[name] == entry, name


def test_golden_file_covers_every_record_format():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    formats = {json.loads(entry["record"])["format"] for entry in golden.values()}
    assert formats == set(LOADERS)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_records(), indent=2) + "\n", encoding="utf-8")
