"""The example lifecycle spec's ledger, pinned byte for byte.

``examples/specs/lifecycle_smoke.json`` runs the whole closed loop:
bootstrap, measured outcomes, drift, retrain, register, canary and
promotion. Its ``LEDGER.jsonl`` records every registered artifact's
SHA-256 and every shadow MAPE, so one digest pins the artifact bytes,
the measurement noise streams and the decisions. How archives are
read and how outcome devices are built must not move it.
"""

import hashlib
import pathlib
import shutil

from repro.lifecycle import run_lifecycle
from repro.specs import LifecycleSpec

SPEC = pathlib.Path(__file__).resolve().parents[2] / "examples" / "specs" / "lifecycle_smoke.json"
LEDGER_SHA256 = "087a9a8b87c898f72153f0e80ca2c8d012951c2ba01e19c3f3c1126ed0e20793"


def test_lifecycle_smoke_ledger_is_byte_identical(tmp_path):
    shutil.copy(SPEC, tmp_path / SPEC.name)
    result = run_lifecycle(LifecycleSpec.load(str(tmp_path / SPEC.name)), closed_loop=True)
    assert result.final_version > result.initial_version
    ledger = tmp_path / "lifecycle_registry" / "ligen-advisor" / "LEDGER.jsonl"
    assert hashlib.sha256(ledger.read_bytes()).hexdigest() == LEDGER_SHA256
