"""The append-only, hash-chained promotion ledger.

Every lifecycle decision — a candidate registered, a promotion, a
rollback, a quarantine, a drift event — is appended to one JSONL file
next to the model's versions in the registry. Each line is a
canonical-JSON entry carrying:

- a monotonically increasing ``seq``;
- the entry ``kind`` and its payload (what was decided and why —
  shadow MAPEs, versions, digests);
- ``prev``: the digest of the previous entry (``None`` for the first);
- ``digest``: the :func:`~repro.runtime.seeding.stable_digest` of the
  entry body.

The chain makes the ledger *auditable*: editing, dropping, or
reordering any historical line breaks every digest after it, and
:meth:`PromotionLedger.entries` verifies the full chain on every read
(raising :class:`~repro.errors.LedgerError`). :meth:`replay` folds the
verified entries into the registry's pointer state — which version is
active, which was active before it, which candidates are quarantined —
so "what should be serving right now" is always derivable from the
audit trail alone, bit-for-bit.

No wall-clock timestamps and no absolute paths enter an entry: two
identical lifecycle runs, whenever and wherever they execute, write
byte-identical ledgers.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import LedgerError
from repro.runtime.seeding import canonical_json, stable_digest

__all__ = ["LEDGER_FORMAT", "LEDGER_VERSION", "LEDGER_KINDS", "LedgerState", "PromotionLedger"]

LEDGER_FORMAT = "repro.lifecycle_ledger"
LEDGER_VERSION = 1

#: Entry kinds the replay fold understands.
LEDGER_KINDS = (
    "register",  # a candidate version entered the registry
    "promote",  # the active pointer moved to a (shadow-vetted) version
    "rollback",  # the active pointer was restored to a prior version
    "quarantine",  # a candidate was rejected and must never be promoted
    "drift",  # the monitor fired (context for the decisions around it)
)

PathLike = Union[str, pathlib.Path]


@dataclass(frozen=True)
class LedgerState:
    """Registry pointer state reconstructed by replaying the ledger."""

    active_version: Optional[int]
    previous_version: Optional[int]
    quarantined: Tuple[int, ...]
    entries: int

    def as_record(self) -> Dict[str, Any]:
        """Plain-dict view (status CLI, property tests)."""
        return {
            "active_version": self.active_version,
            "previous_version": self.previous_version,
            "quarantined": list(self.quarantined),
            "entries": self.entries,
        }


class PromotionLedger:
    """Append-only JSONL audit trail for one registered model name.

    Parameters
    ----------
    path:
        The ledger file (conventionally ``<registry>/<name>/LEDGER.jsonl``,
        see :meth:`for_model`); created on first append.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)

    @classmethod
    def for_model(cls, registry_root: PathLike, name: str) -> "PromotionLedger":
        """The conventional ledger location inside a model registry."""
        return cls(pathlib.Path(registry_root) / name / "LEDGER.jsonl")

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, kind: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Append one decision; returns the chained entry as written.

        The existing chain is verified first — a corrupted ledger is
        never extended (that would bury the evidence under valid links).
        """
        if kind not in LEDGER_KINDS:
            raise LedgerError(
                f"unknown ledger entry kind {kind!r}; expected one of "
                f"{', '.join(LEDGER_KINDS)}"
            )
        existing = self.entries()
        prev = existing[-1]["digest"] if existing else None
        body = {
            "format": LEDGER_FORMAT,
            "schema_version": LEDGER_VERSION,
            "seq": len(existing),
            "kind": kind,
            "payload": dict(payload),
            "prev": prev,
        }
        entry = dict(body)
        entry["digest"] = stable_digest(body)
        line = (canonical_json(entry) + "\n").encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Rewrite-free append; a torn final line is detected (and
        # rejected, naming the truncation that repairs it) on the next read.
        with open(self.path, "a+b") as handle:
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    # entries() verified the final line, so only its newline
                    # is missing: terminate it instead of extending it.
                    line = b"\n" + line
            handle.write(line)
        return entry

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def entries(self) -> List[Dict[str, Any]]:
        """Every entry, chain-verified; ``[]`` for a missing ledger."""
        if not self.path.exists():
            return []
        try:
            raw = self.path.read_bytes()
            text = raw.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LedgerError(f"cannot read ledger {self.path}: {exc}") from exc
        lines = text.splitlines()
        out: List[Dict[str, Any]] = []
        prev: Optional[str] = None
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            where = f"{self.path}:{lineno}"
            try:
                entry = json.loads(line)
            except ValueError as exc:
                message = f"{where}: entry is not valid JSON ({exc})"
                if lineno == len(lines) and not raw.endswith(b"\n"):
                    # append() writes whole newline-terminated lines, so an
                    # unterminated final line is an interrupted append.
                    end = raw.rfind(b"\n") + 1
                    message += (
                        f"; the final line is torn by an interrupted append — "
                        f"truncate the file to byte offset {end}, where the "
                        f"last complete entry ends, to recover"
                    )
                raise LedgerError(message) from exc
            if not isinstance(entry, dict) or entry.get("format") != LEDGER_FORMAT:
                raise LedgerError(f"{where}: not a lifecycle-ledger entry")
            if entry.get("schema_version") != LEDGER_VERSION:
                raise LedgerError(
                    f"{where}: ledger schema_version "
                    f"{entry.get('schema_version')!r} (this build reads "
                    f"{LEDGER_VERSION})"
                )
            body = {k: v for k, v in entry.items() if k != "digest"}
            if entry.get("digest") != stable_digest(body):
                raise LedgerError(f"{where}: entry digest mismatch (tampered or corrupt)")
            if entry.get("seq") != len(out):
                raise LedgerError(
                    f"{where}: entry seq {entry.get('seq')!r} out of order "
                    f"(expected {len(out)})"
                )
            if entry.get("prev") != prev:
                raise LedgerError(
                    f"{where}: hash chain broken (prev {entry.get('prev')!r} "
                    f"does not match preceding digest {prev!r})"
                )
            if entry.get("kind") not in LEDGER_KINDS:
                raise LedgerError(f"{where}: unknown entry kind {entry.get('kind')!r}")
            prev = entry["digest"]
            out.append(entry)
        return out

    def replay(self) -> LedgerState:
        """Fold the verified entries into the registry pointer state.

        Pure function of the ledger bytes: two byte-identical ledgers
        always reconstruct the identical :class:`LedgerState` (pinned by
        the property suite).
        """
        active: Optional[int] = None
        previous: Optional[int] = None
        quarantined: set = set()
        entries = self.entries()
        for entry in entries:
            kind = entry["kind"]
            payload = entry.get("payload", {})
            if kind == "register" and active is None:
                # The first registered version serves by default until an
                # explicit promotion moves the pointer.
                active = _version_of(payload, entry, "version")
            elif kind == "promote":
                previous = active
                active = _version_of(payload, entry, "to_version")
            elif kind == "rollback":
                active = _version_of(payload, entry, "to_version")
                previous = None
            elif kind == "quarantine":
                quarantined.add(_version_of(payload, entry, "version"))
        return LedgerState(
            active_version=active,
            previous_version=previous,
            quarantined=tuple(sorted(quarantined)),
            entries=len(entries),
        )


def _version_of(payload: Mapping[str, Any], entry: Mapping[str, Any], key: str) -> int:
    try:
        return int(payload[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise LedgerError(
            f"ledger entry seq {entry.get('seq')} ({entry.get('kind')}): "
            f"payload field {key!r} missing or malformed"
        ) from exc
