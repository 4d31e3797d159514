"""Deterministic seed derivation for campaign tasks.

A campaign must not consume a shared RNG stream: the points a cache
already holds would then shift the noise every other point sees, and a
resumed or partly warm campaign could never reproduce a cold one.
Instead every measurement task derives its own seed from the *campaign
seed* plus the task's identity (application fingerprint + sweep point),
hashed through SHA-256. The derivation depends only on values, never on
execution order, process ids, or wall-clock time — so a campaign is
bit-identical across interruptions, partial caches, and machines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Mapping

import numpy as np

__all__ = [
    "canonicalize",
    "canonical_json",
    "stable_digest",
    "derive_task_seed",
    "TaskSeeder",
]


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to plain JSON-able types, deterministically.

    Handles dataclasses (by field), mappings (sorted by key), sequences,
    sets (sorted), numpy scalars and arrays. Raises :class:`TypeError`
    for anything else, rather than silently producing an unstable repr.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value, key=str):
            if not isinstance(key, str):
                raise TypeError(f"cannot canonicalize non-string mapping key {key!r}")
            out[key] = canonicalize(value[key])
        return out
    if isinstance(value, np.ndarray):
        return [canonicalize(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(canonicalize(v) for v in value)
    raise TypeError(f"cannot canonicalize {type(value).__name__} value {value!r}")


def canonical_json(value: Any) -> str:
    """The canonical JSON form of ``value`` (sorted keys, no whitespace).

    ``allow_nan=False`` makes non-finite floats an error: a NaN in a
    cache key would compare unequal to itself and silently split the
    cache.
    """
    return json.dumps(
        canonicalize(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def stable_digest(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def derive_task_seed(campaign_seed: int, *key_parts: Any) -> int:
    """A 63-bit seed for one task, from the campaign seed and the task key.

    Different key parts give decorrelated streams; equal inputs always
    give the same seed (unlike :func:`repro.utils.rng.spawn_child`, no
    parent generator state is consumed).
    """
    h = hashlib.sha256()
    h.update(str(int(campaign_seed)).encode("utf-8"))
    for part in key_parts:
        h.update(b"\x1f")
        h.update(canonical_json(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") >> 1


class TaskSeeder:
    """:func:`derive_task_seed` for many tasks that share leading key parts.

    ``TaskSeeder(seed, *prefix).seed(*parts)`` equals
    ``derive_task_seed(seed, *prefix, *parts)``, but the campaign seed and
    the prefix (an app fingerprint, say) are encoded and hashed once; each
    call copies that SHA-256 state and hashes only its own parts.
    """

    def __init__(self, campaign_seed: int, *prefix: Any) -> None:
        self._state = hashlib.sha256(str(int(campaign_seed)).encode("utf-8"))
        for part in prefix:
            self._state.update(b"\x1f" + canonical_json(part).encode("utf-8"))

    def seed(self, *key_parts: Any) -> int:
        """The seed of the task keyed by the prefix plus ``key_parts``."""
        h = self._state.copy()
        for part in key_parts:
            h.update(b"\x1f" + canonical_json(part).encode("utf-8"))
        return int.from_bytes(h.digest()[:8], "big") >> 1
