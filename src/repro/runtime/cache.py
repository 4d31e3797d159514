"""Content-addressed on-disk cache for campaign measurement points.

Each cached entry is a single measurement task: one application at one
sweep point (a pinned frequency, or the baseline run). The cache key is
the SHA-256 digest of the canonical JSON of

``(schema version, device-spec signature, app fingerprint, sweep point,
repetitions, task seed, sensor mode)``

so *any* change to the device model, workload configuration, protocol,
or seeding invalidates exactly the affected entries — and nothing else.
Entries are plain JSON files laid out as ``<root>/<aa>/<digest>.json``
(two-hex-digit fan-out directories), written atomically via a temporary
file + ``os.replace`` so an interrupted campaign never leaves a torn
entry behind.

On-disk entries are never trusted on read: every entry embeds the
SHA-256 digest of its value, and :meth:`ResultCache.get` re-derives and
compares it before serving. A mismatch (bit rot, a tampering process, a
torn write that still parses) is counted in ``stats.corrupt``, the bad
file is dropped, and the caller sees a plain miss — so corruption
degrades to a recompute-and-rewrite, never to silently wrong science.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from repro.runtime.seeding import canonical_json, stable_digest

__all__ = ["CACHE_SCHEMA_VERSION", "CacheStats", "ResultCache", "atomic_write"]

PathLike = Union[str, pathlib.Path]

#: Bump whenever the measurement semantics or the entry payload change;
#: every outstanding cache entry is invalidated (its key no longer
#: matches), old files are simply never read again.
#: v2: entries carry a SHA-256 value digest, validated on every read.
CACHE_SCHEMA_VERSION = 2

_ENTRY_FORMAT = "repro.campaign_point"


def atomic_write(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmp file + ``os.replace`` (never torn).

    A crash before the rename leaves the previous file and no tmp file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # repro-lint: ignore[EXC001] — best-effort tmp cleanup while re-raising
            pass
        raise


@dataclass
class CacheStats:
    """Hit/miss/traffic counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries whose stored digest did not match their value on read;
    #: each is also counted as a miss (the caller recomputes).
    corrupt: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (used by run summaries and tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


class ResultCache:
    """Content-addressed JSON store of per-point campaign measurements.

    Parameters
    ----------
    root:
        Cache directory; created (with parents) on first use.

    Notes
    -----
    The cache is written only by the coordinating process (workers
    return results; the engine persists them), so no cross-process
    locking is needed. Corrupt or foreign files under ``root`` are
    treated as misses, never as errors: a half-written entry from a
    killed run degrades to a recompute.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = pathlib.Path(root)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # keys & paths
    # ------------------------------------------------------------------
    def key_for(self, payload: Any) -> str:
        """The content hash of ``payload`` under the current schema version."""
        return stable_digest({"schema": CACHE_SCHEMA_VERSION, "key": payload})

    def path_for(self, key: str) -> pathlib.Path:
        """On-disk location of the entry with content hash ``key``."""
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored record for ``key``, or ``None`` on a miss.

        An entry is served only after its embedded value digest
        re-verifies; a mismatching (corrupted/tampered) entry is deleted
        and reported as a miss, so the engine recomputes and rewrites a
        clean entry instead of propagating damaged measurements.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
            record = json.loads(raw.decode("utf-8"))
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        if (
            not isinstance(record, dict)
            or record.get("format") != _ENTRY_FORMAT
            or record.get("schema") != CACHE_SCHEMA_VERSION
        ):
            self.stats.misses += 1
            return None
        value = record.get("value")
        if record.get("digest") != self._value_digest(value):
            self.stats.corrupt += 1
            self.stats.misses += 1
            self._discard(path)
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(raw)
        return value

    @staticmethod
    def _value_digest(value: Any) -> Optional[str]:
        """Digest of an entry's value, or ``None`` if it is not hashable.

        Values read back from disk are plain JSON types, so a
        non-canonicalizable value is itself evidence of corruption — it
        simply never matches the stored digest string.
        """
        try:
            return stable_digest(value)
        except TypeError:
            return None

    @staticmethod
    def _discard(path: pathlib.Path) -> None:
        """Best-effort removal of a corrupt entry (already counted)."""
        try:
            path.unlink()
        except OSError:  # repro-lint: ignore[EXC001] — entry is already a miss
            pass

    def put(self, key: str, value: Dict[str, Any], key_payload: Any = None) -> None:
        """Persist ``value`` under ``key`` (atomic write).

        ``key_payload`` — the pre-hash key contents — is stored alongside
        the value purely for human inspection of the cache directory.
        """
        record = {
            "format": _ENTRY_FORMAT,
            "schema": CACHE_SCHEMA_VERSION,
            "value": value,
            "digest": stable_digest(value),
        }
        if key_payload is not None:
            record["key"] = key_payload
        encoded = canonical_json(record).encode("utf-8")
        atomic_write(self.path_for(key), encoded)
        self.stats.writes += 1
        self.stats.bytes_written += len(encoded)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Number of well-formed-looking entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultCache({str(self.root)!r}, entries={self.entry_count()})"
