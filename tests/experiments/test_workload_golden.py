"""Golden-file test pinning what each workload kind builds and measures.

``golden/workloads.json`` was written by the per-kind builders that the
workload catalog replaced, so every check here is a byte-for-byte
"same behaviour" gate on :mod:`repro.experiments.workloads` and
:func:`repro.experiments.datasets.build_campaign`:

- each kind's paper and quick grid: the ``app_fingerprint`` list (apps
  in order, and so campaign cache keys) and the feature names;
- ``campaign_spec_from_cli(kind, quick=q).fingerprint()``;
- ``build_workload`` for a LiGen and a Cronos lifecycle spec;
- a sha256 of the saved dataset (plus the characterization keys) of a
  small 1-D campaign per kind and of the 2-D MHD quick campaign, with
  no engine and with the replay engine.

Regenerate only after a deliberate change to what a kind builds:

    PYTHONPATH=src python -m tests.experiments.test_workload_golden
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.experiments.datasets import build_campaign
from repro.experiments.workloads import APP_KINDS, WORKLOADS
from repro.hw.device import create_device
from repro.io import save_dataset
from repro.lifecycle import build_workload
from repro.runtime.engine import CampaignEngine, app_fingerprint
from repro.specs import LifecycleSpec, campaign_spec_from_cli
from repro.synergy import Platform, SynergyDevice

HERE = Path(__file__).parent
REPO = HERE.parent.parent
GOLDEN = HERE / "golden" / "workloads.json"
LIFECYCLE_SPEC = REPO / "examples" / "specs" / "lifecycle_smoke.json"
SEED = 7
MEM_FREQS = (810.0, 945.0, 1080.0, 1215.0)
GRIDS = {"paper": "paper_params", "quick": "quick_params"}


def _v100():
    return Platform.default(seed=SEED).get_device("v100")


def _a100():
    return SynergyDevice(create_device("a100"), seed=SEED)


def _engine():
    return CampaignEngine(jobs=1, campaign_seed=SEED, method="replay")


def _digest(campaign):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.json"
        save_dataset(campaign.dataset, path)
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "dataset_sha256": sha,
        "keys": [list(k) for k in sorted(campaign.characterizations)],
        "mem_freqs_mhz": campaign.mem_freqs_mhz,
    }


def _campaigns(kind, device, **kw):
    """The quick campaign's digest without an engine and with the replay engine."""
    params = WORKLOADS[kind].quick_params
    return {
        label: _digest(
            build_campaign(device(), kind, params, freq_count=4, repetitions=1, engine=engine, **kw)
        )
        for label, engine in (("serial", None), ("replay", _engine()))
    }


def _lifecycle_specs():
    ligen = LifecycleSpec.load(LIFECYCLE_SPEC)
    record = json.loads(LIFECYCLE_SPEC.read_text(encoding="utf-8"))
    for key in ("ligand_counts", "atom_counts", "fragment_counts"):
        del record["workload"][key]
    record["workload"].update(app="cronos", grids=[[10, 4, 4], [20, 8, 8]], steps=5)
    return {"ligen": ligen, "cronos": LifecycleSpec.from_record(record)}


def catalog_values():
    return {
        "kinds": {
            kind: {
                grid: {
                    "feature_names": list(WORKLOADS[kind].feature_names),
                    "apps": [
                        app_fingerprint(app)
                        for app in WORKLOADS[kind].apps(getattr(WORKLOADS[kind], attr))
                    ],
                }
                for grid, attr in GRIDS.items()
            }
            for kind in APP_KINDS
        },
        "cli_spec_fingerprints": {
            kind: {
                grid: campaign_spec_from_cli(kind, quick=grid == "quick").fingerprint()
                for grid in GRIDS
            }
            for kind in APP_KINDS
        },
        "lifecycle_workloads": {
            name: [app_fingerprint(app) for app in build_workload(spec)]
            for name, spec in _lifecycle_specs().items()
        },
    }


def dataset_values():
    values = {kind: _campaigns(kind, _v100) for kind in APP_KINDS}
    values["mhd-2d"] = _campaigns("mhd", _a100, mem_freqs_mhz=MEM_FREQS)
    return values


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _plain(values):
    # JSON round trip: tuples become lists, as in the golden file.
    return json.loads(json.dumps(values))


@pytest.mark.parametrize("section", ["kinds", "cli_spec_fingerprints", "lifecycle_workloads"])
def test_catalog_builds_what_the_per_kind_builders_built(golden, section):
    assert _plain(catalog_values()[section]) == golden[section]


def test_campaign_datasets_are_byte_identical(golden):
    assert _plain(dataset_values()) == golden["datasets"]


if __name__ == "__main__":
    values = {**catalog_values(), "datasets": dataset_values()}
    GOLDEN.write_text(json.dumps(_plain(values), indent=1, sort_keys=True) + "\n", encoding="utf-8")
