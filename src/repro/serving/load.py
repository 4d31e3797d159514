"""Load generation and concurrent driving of an advisor service.

Shared by ``repro serve``, the benchmark suite and the determinism and
floor tests, so they all exercise the same request shapes:

- :func:`synthetic_requests` — a seeded, reproducible request stream
  drawn from a bounded pool of feature tuples (heavy-traffic services
  see repeated inputs; the pool size controls the cache-hit profile);
- :func:`run_load` — drive a service with a fixed request list from
  ``workers`` threads of the calling process and return the advice
  **in request order**, which makes "N workers produce
  bitwise-identical advice to the serial run" a one-line assertion.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServingError
from repro.serving.objectives import Advice, Objective
from repro.serving.service import AdvisorService
from repro.utils.rng import RandomState, as_generator

__all__ = [
    "synthetic_feature_pool",
    "synthetic_requests",
    "run_load",
]

Request = Tuple[Tuple[float, ...], Optional[Objective]]


def synthetic_feature_pool(
    base_features: Sequence[float], pool_size: int
) -> List[Tuple[float, ...]]:
    """``pool_size`` distinct feature tuples scaled around a base input.

    Deterministic (no RNG): tuple *i* scales the base by a factor evenly
    spaced in [0.5, 2.0], mimicking a workload family of varying size.
    """
    if pool_size < 1:
        raise ServingError("pool_size must be >= 1")
    base = [float(v) for v in base_features]
    if not base:
        raise ServingError("base_features must be non-empty")
    factors = np.linspace(0.5, 2.0, pool_size)
    return [tuple(v * float(factor) for v in base) for factor in factors]


def synthetic_requests(
    base_features: Sequence[float],
    n_requests: int,
    pool_size: int = 8,
    objectives: Optional[Sequence[Objective]] = None,
    seed: RandomState = 0,
) -> List[Request]:
    """A seeded request stream over a bounded feature pool.

    Feature tuples are drawn uniformly from the pool; objectives cycle
    through ``objectives`` (default: the plain trade-off objective).
    Equal seeds give equal streams — the serial/concurrent determinism
    comparisons rely on replaying the exact same list.
    """
    if n_requests < 0:
        raise ServingError("n_requests must be >= 0")
    pool = synthetic_feature_pool(base_features, pool_size)
    objs: List[Optional[Objective]] = (
        list(objectives) if objectives else [Objective.tradeoff()]
    )
    rng = as_generator(seed)
    picks = rng.integers(0, len(pool), size=int(n_requests))
    return [(pool[int(p)], objs[i % len(objs)]) for i, p in enumerate(picks)]


def run_load(
    service: AdvisorService,
    requests: Sequence[Request],
    workers: int = 1,
) -> List[Advice]:
    """Serve every request, returning advice in request order.

    ``workers <= 1`` runs serially on the calling thread; otherwise a
    thread pool issues requests concurrently (which is what makes the
    service's micro-batches fill up). Any request error propagates.
    """
    if workers <= 1:
        return [service.advise(feats, obj) for feats, obj in requests]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        futures = [pool.submit(service.advise, feats, obj) for feats, obj in requests]
        return [f.result() for f in futures]

