"""``PromotionLedger.append`` never writes an unreadable ledger.

A final entry that is complete JSON but lost its newline (a hand edit, a
copy that dropped the trailing byte) used to have the next entry glued
onto its line, so ``entries()`` failed and both entries were lost.
"""

from repro.lifecycle.ledger import PromotionLedger
from repro.runtime.seeding import canonical_json


def _line(entry):
    return (canonical_json(entry) + "\n").encode("utf-8")


def test_append_after_a_lost_newline_keeps_both_entries(tmp_path):
    ledger = PromotionLedger(tmp_path / "LEDGER.jsonl")
    first = ledger.append("drift", {"kind": "drift", "epoch": 1})
    ledger.path.write_bytes(ledger.path.read_bytes().rstrip(b"\n"))
    second = ledger.append("drift", {"kind": "recover", "epoch": 2})
    assert ledger.entries() == [first, second]
    assert ledger.path.read_bytes() == _line(first) + _line(second)
    assert ledger.replay().entries == 2


def test_append_to_a_terminated_ledger_writes_exactly_one_line(tmp_path):
    ledger = PromotionLedger(tmp_path / "LEDGER.jsonl")
    first = ledger.append("register", {"version": 1})
    second = ledger.append("promote", {"to_version": 1})
    assert ledger.path.read_bytes() == _line(first) + _line(second)
