"""LRU advice cache for the advisor service.

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
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServingError
from repro.runtime.seeding import stable_digest
from repro.serving.objectives import Advice, Objective

__all__ = ["quantize_features", "AdviceKeyMaker", "PredictionCache"]

#: Decimal places kept when quantizing feature values into cache keys.
FEATURE_QUANTUM_DECIMALS = 9


def quantize_features(features: Sequence[float]) -> Tuple[float, ...]:
    """Round features to the cache quantum (also the in-batch dedup key).

    The service predicts from the rounded values, so advice for ``x`` is
    the model's answer at ``quantize_features(x)``. Rounding can cross a
    split threshold (``129.0000000004`` becomes ``129.0``, which goes
    left of a split at ``129.0``), so it can change the answer: inputs
    share a prediction exactly when they lie in one split cell.
    Canonical: ``-0.0`` maps to ``0.0`` so bitwise-different-but-equal
    tuples share one cache identity. Anything but an iterable of finite
    real numbers raises :class:`ServingError`: a string or bytes, a
    scalar, or an element that is a string, a bool, complex, ``None``,
    nested, too large for a float, NaN or infinite (the NaN policy:
    there is no meaningful cache key — or model prediction — for a
    NaN/inf feature).
    """
    if type(features) is not tuple and type(features) is not list:
        features = _iterable(features)
    out: List[float] = []
    for v in features:
        if type(v) is not float:
            v = _real(v)
        if not math.isfinite(v):
            raise ServingError(f"feature values must be finite, got {v!r}")
        q = round(v, FEATURE_QUANTUM_DECIMALS)
        out.append(0.0 if q == 0.0 else q)
    return tuple(out)


def _iterable(features: Any) -> Iterator[Any]:
    """An iterator over a request that is not a tuple or list, or :class:`ServingError`."""
    if isinstance(features, (str, bytes, bytearray)):
        raise ServingError(f"features must be numbers, got {type(features).__name__}")
    try:
        return iter(features)
    except TypeError:
        raise ServingError(
            f"features must be an iterable of numbers, got {type(features).__name__}"
        ) from None


def _real(value: object) -> float:
    """A feature element that is not a ``float``, as one, or :class:`ServingError`."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ServingError(f"feature values must be real numbers, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ServingError("a feature value is too large for a float") from None


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


class PredictionCache:
    """Thread-safe bounded LRU map from advice keys to :class:`Advice`.

    One lock guards one ``OrderedDict``, so eviction is exact LRU at
    every capacity. ``capacity <= 0`` disables caching entirely (every
    lookup misses); the service still works, just recomputes. Counters
    are owned here so hit/eviction behaviour is observable in the
    service stats report.
    """

    def __init__(self, capacity: int = 2048) -> None:
        self.capacity = int(capacity)
        self._entries: "OrderedDict[str, Advice]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[Advice]:
        """The cached advice for ``key``, or ``None`` (recency updated)."""
        with self._lock:
            advice = self._entries.get(key)
            if advice is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return advice

    def put(self, key: str, advice: Advice) -> None:
        """Insert (or refresh) an entry, evicting the least-recent."""
        if self.capacity <= 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = advice
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

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
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio(),
        }
