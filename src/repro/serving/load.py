"""Load generation and concurrent driving of an advisor service.

Shared by ``repro serve``, the benchmark suite and the determinism and
floor tests, so they all exercise the same request shapes:

- :func:`synthetic_requests` — a seeded, reproducible request stream
  drawn from a bounded pool of feature tuples (heavy-traffic services
  see repeated inputs; the pool size controls the cache-hit profile);
- :func:`run_load` — drive a service with a fixed request list from
  ``workers`` threads and return the advice **in request order**, which
  makes "N workers produce bitwise-identical advice to the serial run"
  a one-line assertion;
- :func:`run_load_multiprocess` — the same contract across OS
  *processes*: each worker process resolves its own
  :class:`AdvisorService` from a registry and serves a contiguous slice
  of the stream. Threads share one GIL, so the CPU-bound cache-miss
  path cannot scale past one core in-process; separate interpreters
  can. Advice is a pure function of (model digest, features, grid,
  objective), so per-process caches cannot change any answer — the
  combined, request-ordered result is still bitwise-equal to a serial
  replay.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServingError
from repro.serving.objectives import Advice, Objective
from repro.serving.service import AdvisorService
from repro.utils.rng import RandomState, as_generator

__all__ = [
    "synthetic_feature_pool",
    "synthetic_requests",
    "run_load",
    "run_load_multiprocess",
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


# ---------------------------------------------------------------------------
# multi-process driving (scaling past the GIL)
# ---------------------------------------------------------------------------
# Worker-process state: one AdvisorService per process, built by the
# pool initializer from the registry (models resolve integrity-verified
# in every process; nothing fitted crosses the process boundary).
_MP_STATE: Dict[str, AdvisorService] = {}


def _mp_init(
    registry_root: str,
    name: str,
    version: Optional[int],
    freqs_mhz: Tuple[float, ...],
    max_batch: int,
    cache_size: int,
    cache_shards: int,
) -> None:
    from repro.serving.registry import ModelRegistry

    _MP_STATE["service"] = AdvisorService.from_registry(
        ModelRegistry(registry_root),
        name,
        freqs_mhz,
        version=version,
        max_batch=max_batch,
        cache_size=cache_size,
        cache_shards=cache_shards,
    )


def _mp_serve_slice(payload: Tuple[Sequence[Request], int]) -> List[Advice]:
    requests, workers = payload
    return run_load(_MP_STATE["service"], requests, workers=workers)


def run_load_multiprocess(
    registry_root,
    name: str,
    requests: Sequence[Request],
    freqs_mhz,
    processes: int = 2,
    workers_per_process: int = 2,
    version: Optional[int] = None,
    max_batch: int = 16,
    cache_size: int = 2048,
    cache_shards: int = 8,
) -> List[Advice]:
    """Serve a request stream from ``processes`` worker processes.

    The stream is split into ``processes`` contiguous slices; each
    worker process resolves the registered model itself, serves its
    slice with ``workers_per_process`` threads, and the slices are
    re-joined **in request order** — so the result compares directly
    (bitwise) against :func:`run_load` on the same stream. Requests and
    advice cross the process boundary as plain picklable dataclasses.

    ``processes <= 1`` degenerates to an in-process :func:`run_load`
    (building the service from the registry), so callers can sweep the
    process count without special-casing one.
    """
    if processes < 1:
        raise ServingError("processes must be >= 1")
    if workers_per_process < 1:
        raise ServingError("workers_per_process must be >= 1")
    requests = list(requests)
    if not requests:
        return []
    freqs = tuple(float(f) for f in np.asarray(freqs_mhz, dtype=float).ravel())
    initargs = (
        str(registry_root),
        name,
        version,
        freqs,
        int(max_batch),
        int(cache_size),
        int(cache_shards),
    )
    if processes == 1:
        _mp_init(*initargs)
        try:
            return _mp_serve_slice((requests, workers_per_process))
        finally:
            _MP_STATE.clear()
    bounds = np.array_split(np.arange(len(requests)), processes)
    slices = [
        requests[idx[0] : idx[-1] + 1] for idx in bounds if idx.size
    ]
    out: List[Advice] = []
    with ProcessPoolExecutor(
        max_workers=len(slices), initializer=_mp_init, initargs=initargs
    ) as pool:
        futures = [
            pool.submit(_mp_serve_slice, (chunk, int(workers_per_process)))
            for chunk in slices
        ]
        for future in futures:
            out.extend(future.result())
    return out
