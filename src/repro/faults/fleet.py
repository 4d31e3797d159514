"""Fleet-scale GPU failure schedules, derived from the fault-hash core.

The campaign-level chaos layer decides faults one occurrence at a time
through :class:`~repro.faults.injector.FaultInjector`. A datacenter
simulation needs the same determinism at a different granularity: a
whole ``(tick, gpu)`` grid of independent failure draws, computed *up
front* so the vectorized and reference engines consume the identical
schedule (the schedule is input data, not engine behaviour, so it can
never be a source of divergence between them).

Each cell takes the value of
:func:`~repro.faults.injector.fault_hash_unit` with site
``"fleet.gpu.<g>"`` and occurrence ``<tick>`` — the same
``sha256(seed, site, occurrence)`` discipline every other fault decision
in the repo derives from, so a fleet failure schedule is reproducible
from ``(seed, probability)`` alone and completely decorrelated across
GPUs, ticks, and seeds.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["fleet_failure_schedule"]


def fleet_failure_schedule(
    seed: int,
    n_gpus: int,
    n_ticks: int,
    probability: float,
    site_prefix: str = "fleet.gpu",
) -> np.ndarray:
    """Boolean ``(n_ticks, n_gpus)`` grid: does GPU *g* fail at tick *t*?

    Cell ``(t, g)`` fires iff
    ``fault_hash_unit(seed, f"{site_prefix}.{g}", t) < probability`` —
    an independent Bernoulli draw per GPU-tick. ``probability <= 0``
    short-circuits to an all-``False`` grid without hashing.

    The hash input of a cell is a per-GPU constant prefix
    ``"<seed>\\x1f<site>\\x1f"`` followed by the tick, so each GPU's
    prefix is hashed once and its state copied per tick. One GPU's
    8-byte digest prefixes are then decoded in a single pass: big-endian
    ``uint64`` to ``float64`` (correctly rounded, like Python's
    ``int / float``) over ``2**64`` — the exact value ``fault_hash_unit``
    computes for each cell.
    """
    fires = np.zeros((int(n_ticks), int(n_gpus)), dtype=bool)
    if probability <= 0.0:
        return fires
    ticks = [str(t).encode("utf-8") for t in range(int(n_ticks))]
    for g in range(int(n_gpus)):
        prefix = hashlib.sha256(f"{int(seed)}\x1f{site_prefix}.{g}\x1f".encode("utf-8"))
        digests = bytearray()
        for tick in ticks:
            h = prefix.copy()
            h.update(tick)
            digests += h.digest()[:8]
        units = np.frombuffer(digests, dtype=">u8").astype(np.float64) / 2.0**64
        fires[:, g] = units < probability
    return fires
