"""A torn final ledger line names its repair.

``PromotionLedger.append`` writes each entry as one newline-terminated
line, so a final line without a newline is an interrupted append. Reads
reject it with a ``LedgerError`` that names the byte offset where the
last complete entry ends and the truncation that recovers the ledger. A
complete line that fails verification keeps the plain message: nothing
says truncating it is safe.
"""

import re

import pytest

from repro.cli import main
from repro.errors import LedgerError
from repro.lifecycle import CanaryController, PromotionLedger

from .conftest import make_records


def _seed(ledger: PromotionLedger) -> None:
    ledger.append("register", {"name": "adv", "version": 1})
    ledger.append("register", {"name": "adv", "version": 2})
    ledger.append("promote", {"name": "adv", "from_version": 1, "to_version": 2})


def _tear(ledger: PromotionLedger) -> int:
    """Cut the last entry mid-line; returns where the complete entries end."""
    raw = ledger.path.read_bytes()
    complete = raw.rstrip(b"\n").rfind(b"\n") + 1
    ledger.path.write_bytes(raw[: complete + 25])
    return complete


def _offset(message: str) -> int:
    match = re.search(r"byte offset (\d+)", message)
    assert match, message
    return int(match.group(1))


@pytest.fixture
def ledger(tmp_path):
    led = PromotionLedger(tmp_path / "LEDGER.jsonl")
    _seed(led)
    return led


class TestTornFinalLine:
    def test_read_names_offset_and_truncation(self, ledger):
        complete = _tear(ledger)
        with pytest.raises(LedgerError, match="not valid JSON") as exc:
            ledger.entries()
        message = str(exc.value)
        assert "truncate" in message
        assert _offset(message) == complete

    def test_append_refuses_with_the_same_repair(self, ledger):
        complete = _tear(ledger)
        with pytest.raises(LedgerError, match="truncate") as exc:
            ledger.append("drift", {"name": "adv"})
        assert _offset(str(exc.value)) == complete

    def test_truncating_to_the_offset_recovers(self, ledger):
        before = ledger.entries()
        _tear(ledger)
        with pytest.raises(LedgerError) as exc:
            ledger.entries()
        with open(ledger.path, "r+b") as handle:
            handle.truncate(_offset(str(exc.value)))
        assert ledger.entries() == before[:-1]
        ledger.append("drift", {"name": "adv"})
        assert [e["seq"] for e in ledger.entries()] == [0, 1, 2]

    def test_torn_only_line_truncates_to_empty(self, tmp_path):
        ledger = PromotionLedger(tmp_path / "LEDGER.jsonl")
        ledger.append("register", {"name": "adv", "version": 1})
        ledger.path.write_bytes(ledger.path.read_bytes()[:30])
        with pytest.raises(LedgerError, match="byte offset 0"):
            ledger.entries()


class TestCompleteLineFailures:
    def test_invalid_complete_line_keeps_plain_message(self, ledger):
        lines = ledger.path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:40] + b"\n"
        ledger.path.write_bytes(b"".join(lines))
        with pytest.raises(LedgerError, match="not valid JSON") as exc:
            ledger.entries()
        assert "truncate" not in str(exc.value)

    def test_invalid_final_complete_line_keeps_plain_message(self, ledger):
        raw = ledger.path.read_bytes()
        ledger.path.write_bytes(raw[:-25] + b"\n")
        with pytest.raises(LedgerError, match="not valid JSON") as exc:
            ledger.entries()
        assert "truncate" not in str(exc.value)


def test_lifecycle_status_reports_the_repair(registry, capsys):
    CanaryController(registry, "adv").consider(3, make_records(), incumbent_version=1)
    ledger = PromotionLedger.for_model(registry.root, "adv")
    complete = _tear(ledger)
    rc = main(["lifecycle", "status", "--root", str(registry.root), "--name", "adv"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err and "not valid JSON" in err
    assert f"byte offset {complete}" in err
