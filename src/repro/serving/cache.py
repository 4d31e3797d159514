"""Sharded LRU advice cache for the advisor service.

Keys (:class:`AdviceKeyMaker`) identify ``(model digest, quantized
features, frequency grid, objective)`` — the full identity of an advice
computation — with the per-service part hashed through the same
canonical-JSON hashing the campaign cache uses
(:func:`repro.runtime.seeding.stable_digest`).
Because the advisor is a pure function of that tuple, a cache hit
returns the *identical* advice the model would recompute, so caching can
never change what a client observes — only how fast they observe it.

Features are quantized before hashing, and the service answers for the
quantized features: the model sees ``quantize_features(x)``, not ``x``.
That keeps float noise (e.g. a client re-deriving sizes through a
different arithmetic order) from fragmenting the cache, but it is not
free of effect: two inputs share a prediction exactly when they lie in
one cell of the model's split grid, and rounding can move an input
across a split. A LiGen model that splits ligands at 129.0 answers
``(129.0000000004, 20, 89)`` as ``(129.0, 20, 89)``, the left side of
that split. Quantization also **canonicalizes signed zeros** (``-0.0``
→ ``0.0``): the two compare equal and predict identically, but
serialize to different JSON (and therefore different digests), which
used to split one logical entry into two and let a ``-0.0`` request
miss a ``0.0`` entry.
Non-finite features are rejected up front — NaN is unequal even to
itself, so no cache key (or model input) can meaningfully contain one.

The cache is split into ``shards`` independent ``lock + OrderedDict``
segments selected by a stable CRC32 of the key, so concurrent serving
threads (and the leader/follower batch path) do not serialize on one
global lock. Each shard runs exact LRU over its own keyspace slice;
small caches collapse to a single shard (see ``_MIN_SHARD_CAPACITY``)
so eviction order stays globally exact where capacity is tight enough
for tests and small deployments to rely on it.
"""

from __future__ import annotations

import math
import threading
import zlib
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ServingError
from repro.runtime.seeding import stable_digest
from repro.serving.objectives import Advice, Objective

__all__ = ["quantize_features", "AdviceKeyMaker", "PredictionCache"]

#: Decimal places kept when quantizing feature values into cache keys.
FEATURE_QUANTUM_DECIMALS = 9

#: Below this many entries per shard, sharding is collapsed: a sharded
#: cache approximates global LRU (evictions are per-shard), which is a
#: fine trade at thousands of entries but surprising at ten.
_MIN_SHARD_CAPACITY = 64

#: Default shard count for the advisor's advice cache.
DEFAULT_SHARDS = 8


def quantize_features(features: Sequence[float]) -> Tuple[float, ...]:
    """Round features to the cache quantum (also the in-batch dedup key).

    The service predicts from the rounded values, so advice for ``x`` is
    the model's answer at ``quantize_features(x)``. Rounding can cross a
    split threshold (``129.0000000004`` becomes ``129.0``, which goes
    left of a split at ``129.0``), so it can change the answer: inputs
    share a prediction exactly when they lie in one split cell.
    Canonical: ``-0.0`` maps to ``0.0`` so bitwise-different-but-equal
    tuples share one cache identity. Non-finite values raise
    :class:`ServingError` (the NaN policy: there is no meaningful cache
    key — or model prediction — for a NaN/inf feature).
    """
    out: List[float] = []
    for v in features:
        v = float(v)
        if not math.isfinite(v):
            raise ServingError(f"feature values must be finite, got {v!r}")
        q = round(v, FEATURE_QUANTUM_DECIMALS)
        out.append(0.0 if q == 0.0 else q)
    return tuple(out)


class AdviceKeyMaker:
    """Per-service advice keys with the constant part digested once.

    Canonical-JSON-hashing the model digest and the whole frequency grid
    on every request would cost more than a cache hit itself. Within one
    service those are fixed, so this maker folds them (with the
    memory-clock axis of a 2-D serving grid, when there is one) into a
    one-time ``base`` digest and composes the per-request remainder as
    an exact string: ``repr`` of the quantized feature tuple (float repr
    is shortest-round-trip — lossless and stable across processes) plus
    the frozen objective's field repr, memoized per distinct objective.
    Keys are service-local cache identities (never persisted); they
    separate distinct models, grids, features and objectives.
    """

    __slots__ = ("_base", "_objective_tokens")

    def __init__(
        self,
        model_digest: str,
        freqs_mhz: Sequence[float],
        mem_freqs_mhz: Optional[Sequence[float]] = None,
    ) -> None:
        grid: Dict[str, Any] = {
            "model": str(model_digest),
            "freqs_mhz": [float(f) for f in freqs_mhz],
        }
        if mem_freqs_mhz is not None:
            grid["mem_freqs_mhz"] = [float(m) for m in mem_freqs_mhz]
        self._base = stable_digest(grid)
        self._objective_tokens: Dict[Objective, str] = {}

    def key(self, quantized_features: Tuple[float, ...], objective: Objective) -> str:
        """Content key for one request (features already quantized)."""
        token = self._objective_tokens.get(objective)
        if token is None:
            token = repr(objective)
            self._objective_tokens[objective] = token
        return f"{self._base}|{quantized_features!r}|{token}"


class _Shard:
    """One lock + OrderedDict segment with exact LRU over its keys."""

    __slots__ = ("capacity", "entries", "lock", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self.entries: "OrderedDict[str, Advice]" = OrderedDict()
        self.lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class PredictionCache:
    """Thread-safe bounded sharded-LRU map from advice keys to :class:`Advice`.

    ``capacity <= 0`` disables caching entirely (every lookup misses);
    the service still works, just recomputes. ``shards`` caps how many
    independent lock+dict segments the capacity is spread over — the
    effective count is clamped so each shard holds at least
    ``_MIN_SHARD_CAPACITY`` entries (so a tiny cache is one shard with
    exact global LRU). Counters are owned here so hit/eviction behaviour
    is observable in the service stats report.
    """

    def __init__(self, capacity: int = 2048, shards: int = DEFAULT_SHARDS) -> None:
        self.capacity = int(capacity)
        if int(shards) < 1:
            raise ServingError("cache shards must be >= 1")
        if self.capacity <= 0:
            n_shards = 1
        else:
            n_shards = max(1, min(int(shards), self.capacity // _MIN_SHARD_CAPACITY))
        # Spread capacity exactly: the first (capacity % n) shards take
        # the remainder, so total capacity is preserved to the entry.
        base, rem = divmod(max(self.capacity, 0), n_shards)
        self._shards: List[_Shard] = [
            _Shard(base + (1 if i < rem else 0)) for i in range(n_shards)
        ]

    @property
    def shards(self) -> int:
        """Effective shard count (after the small-cache clamp)."""
        return len(self._shards)

    def _shard_for(self, key: str) -> _Shard:
        # CRC32, not hash(): stable across processes and runs, so shard
        # placement (and therefore eviction behaviour) is reproducible.
        return self._shards[zlib.crc32(key.encode("utf-8")) % len(self._shards)]

    def get(self, key: str) -> Optional[Advice]:
        """The cached advice for ``key``, or ``None`` (recency updated)."""
        shard = self._shard_for(key)
        with shard.lock:
            advice = shard.entries.get(key)
            if advice is None:
                shard.misses += 1
                return None
            shard.entries.move_to_end(key)
            shard.hits += 1
            return advice

    def put(self, key: str, advice: Advice) -> None:
        """Insert (or refresh) an entry, evicting the shard's least-recent."""
        if self.capacity <= 0:
            return
        shard = self._shard_for(key)
        with shard.lock:
            if key in shard.entries:
                shard.entries.move_to_end(key)
            shard.entries[key] = advice
            while len(shard.entries) > shard.capacity:
                shard.entries.popitem(last=False)
                shard.evictions += 1

    def __len__(self) -> int:
        total = 0
        for shard in self._shards:
            with shard.lock:
                total += len(shard.entries)
        return total

    # -- aggregated counters (API-compatible with the unsharded cache) --
    @property
    def hits(self) -> int:
        return sum(s.hits for s in self._shards)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self._shards)

    @property
    def evictions(self) -> int:
        return sum(s.evictions for s in self._shards)

    def shard_sizes(self) -> List[int]:
        """Entry count per shard (observability + distribution tests)."""
        sizes = []
        for shard in self._shards:
            with shard.lock:
                sizes.append(len(shard.entries))
        return sizes

    def hit_ratio(self) -> float:
        """Hits over lookups — defined as 0.0 before any traffic.

        Never NaN/raises: the zero-lookup case short-circuits, so a
        fresh service's ``as_dict()``/JSON stats report stays finite.
        """
        hits = self.hits
        total = hits + self.misses
        return hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict counter view (stats reports and tests)."""
        return {
            "capacity": self.capacity,
            "shards": self.shards,
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio(),
        }
