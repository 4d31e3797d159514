"""Content-addressed on-disk cache for campaign measurement points.

Each cached entry is a single measurement task: one application at one
sweep point (a pinned frequency, or the baseline run). The cache key is
the SHA-256 digest of the canonical JSON of

``(schema version, device-spec signature, app fingerprint, sweep point,
repetitions, task seed, sensor mode)``

so *any* change to the device model, workload configuration, protocol,
or seeding invalidates exactly the affected entries — and nothing else.
:meth:`ResultCache.key_for` hashes one whole payload; :class:`SweepKeys`
gives the same keys for every point of a sweep, hashing the fields the
points share once.
Entries are plain JSON files laid out as ``<root>/<aa>/<digest>.json``
(two-hex-digit fan-out directories), written atomically via a temporary
file + ``os.replace`` so an interrupted campaign never leaves a torn
entry behind.

On-disk entries are never trusted on read: every entry embeds the
SHA-256 digest of its value, and :meth:`ResultCache.get` re-derives and
compares it before serving. A mismatch (bit rot, a tampering process, a
torn write that still parses, a value no canonical JSON can hold, nesting
too deep to parse) is counted in ``stats.corrupt``, the bad file is
dropped, and the caller sees a plain miss — so corruption degrades to a
recompute-and-rewrite, never to silently wrong science.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import secrets
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.runtime.seeding import canonical_json, stable_digest

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "CanonicalJSON",
    "ResultCache",
    "SweepKeys",
    "atomic_write",
]

PathLike = Union[str, pathlib.Path]

#: Bump whenever the measurement semantics or the entry payload change;
#: every outstanding cache entry is invalidated (its key no longer
#: matches), old files are simply never read again.
#: v2: entries carry a SHA-256 value digest, validated on every read.
CACHE_SCHEMA_VERSION = 2

_ENTRY_FORMAT = "repro.campaign_point"


class CanonicalJSON(str):
    """Text that is already the :func:`canonical_json` of some value.

    :class:`SweepKeys` and :meth:`ResultCache.put` splice it in verbatim
    where they would otherwise encode the value again.
    """

    __slots__ = ()

    @classmethod
    def of(cls, value: Any) -> "CanonicalJSON":
        """The canonical JSON of ``value`` (``value`` itself if already one)."""
        return value if isinstance(value, cls) else cls(canonical_json(value))


class SweepKeys:
    """The cache keys of every point of one sweep, its shared head hashed once.

    ``fields`` are the key-payload fields all points share; each must
    sort before ``"point"``. For every point,
    ``key(point, repetitions, seed)`` returns ``(digest, payload)`` where
    ``payload`` is the canonical JSON of
    ``{**fields, "point": point, "repetitions": repetitions, "seed": seed}``
    and ``digest`` equals :meth:`ResultCache.key_for` of that dict: the
    head of the hashed text up to ``"point":`` goes through SHA-256 once,
    and each point copies that state and hashes only its own tail.
    """

    def __init__(self, fields: Mapping[str, Any]) -> None:
        # Canonical JSON sorts keys, so the per-point fields ("point",
        # "repetitions", "seed") come last only if every shared one sorts
        # before them.
        late = sorted(name for name in fields if name >= "point")
        if late:
            raise ValueError(f"shared key fields must sort before 'point': {late}")
        parts = [
            f"{json.dumps(name)}:{CanonicalJSON.of(fields[name])}," for name in sorted(fields)
        ]
        self._head = "{" + "".join(parts) + '"point":'
        self._state = hashlib.sha256(f'{{"key":{self._head}'.encode("utf-8"))

    def key(self, point: Any, repetitions: int, seed: int) -> Tuple[str, CanonicalJSON]:
        """``(digest, payload)`` of one point's cache entry."""
        tail = f'{canonical_json(point)},"repetitions":{int(repetitions)},"seed":{int(seed)}}}'
        h = self._state.copy()
        h.update(f'{tail},"schema":{CACHE_SCHEMA_VERSION}}}'.encode("utf-8"))
        return h.hexdigest(), CanonicalJSON(self._head + tail)


#: Flags ``tempfile.mkstemp`` opens its file with, write-only.
_TEMP_FLAGS = (
    os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_BINARY", 0)
)


def _create_temp(directory: pathlib.Path) -> Tuple[int, str]:
    """``(fd, name)`` of a new ``tmp*.tmp`` file in ``directory``.

    As ``tempfile.mkstemp``, but created with mode ``0o666`` less the
    umask, as ``open()`` creates a file: ``mkstemp`` creates it ``0o600``,
    and ``os.replace`` would hand that mode on to the file it replaces.
    """
    for _ in range(tempfile.TMP_MAX):
        tmp_name = os.path.join(directory, f"tmp{secrets.token_hex(8)}.tmp")
        try:
            return os.open(tmp_name, _TEMP_FLAGS, 0o666), tmp_name
        except FileExistsError:
            continue
    raise FileExistsError(f"{directory}: no free temporary file name")


def atomic_write(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmp file + ``os.replace`` (never torn).

    A crash before the rename leaves the previous file and no tmp file.
    The file gets the mode ``open()`` would give a new one (``0o644``
    under umask ``022``), whatever mode the file it replaces had.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = _create_temp(path.parent)
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
    #: Entries whose stored digest did not match their value on read, or
    #: that no :meth:`ResultCache.put` could have written (a value with no
    #: canonical JSON form, nesting too deep to parse); each is also
    #: counted as a miss (the caller recomputes).
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
    The cache is written only by the engine, after each task returns,
    so no cross-process locking is needed. Corrupt or foreign files under ``root`` are
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
            # Absent, or torn: the recompute's put overwrites it.
            self.stats.misses += 1
            return None
        except RecursionError:
            self._reject(path)
            return None
        if (
            not isinstance(record, dict)
            or record.get("format") != _ENTRY_FORMAT
            or record.get("schema") != CACHE_SCHEMA_VERSION
        ):
            self.stats.misses += 1
            return None
        value = record.get("value")
        digest = self._value_digest(value)
        if digest is None or record.get("digest") != digest:
            self._reject(path)
            return None
        self.stats.hits += 1
        self.stats.bytes_read += len(raw)
        return value

    @staticmethod
    def _value_digest(value: Any) -> Optional[str]:
        """:func:`stable_digest` of a value read back from disk, or ``None``.

        The value is parsed JSON: dicts with string keys, lists, strings,
        numbers, booleans and null, which ``canonicalize`` returns as they
        are, so it is dumped with the canonical settings directly. A value
        with no canonical JSON form — a ``NaN``/``Infinity``/``1e999``
        token, nesting deeper than the interpreter can walk — is itself
        evidence of corruption: no :meth:`put` could have written it.
        """
        try:
            text = json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)
        except (ValueError, RecursionError):
            return None
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _reject(self, path: pathlib.Path) -> None:
        """Count a corrupt entry as a miss and discard it."""
        self.stats.corrupt += 1
        self.stats.misses += 1
        self._discard(path)

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
        the value purely for human inspection of the cache directory; a
        :class:`CanonicalJSON` payload (what :meth:`SweepKeys.key`
        returns) is stored as is.
        """
        # The canonical JSON of {"digest", "format"[, "key"], "schema",
        # "value"}, written out in its sorted key order so that neither the
        # value nor the key payload is encoded twice.
        value_json = canonical_json(value)
        digest = hashlib.sha256(value_json.encode("utf-8")).hexdigest()
        key_field = "" if key_payload is None else f',"key":{CanonicalJSON.of(key_payload)}'
        encoded = (
            f'{{"digest":"{digest}","format":"{_ENTRY_FORMAT}"{key_field},'
            f'"schema":{CACHE_SCHEMA_VERSION},"value":{value_json}}}'
        ).encode("utf-8")
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
