"""Online serving: model registry + frequency-advisor service.

The inference-stack layer over everything trained offline (PRs 1–4):

- :mod:`repro.serving.registry` — versioned, digest-validated storage of
  trained :class:`~repro.modeling.domain.DomainSpecificModel` artifacts
  (``register`` / ``resolve`` / ``list`` / ``verify``); tampered models
  are never served;
- :mod:`repro.serving.objectives` — pure advice objectives: balanced
  speedup/energy trade-off, min-energy-under-deadline (Ilager-style),
  max-speedup-under-power-cap;
- :mod:`repro.serving.service` — :class:`AdvisorService`: thread-safe
  ``advise()`` with request micro-batching through the vectorized
  forest path and an exact-LRU advice cache behind one lock; batching
  and caching are bit-transparent (concurrent == serial, batched ==
  scalar);
- :mod:`repro.serving.stats` — request/batch/cache counters and
  reservoir-sampled latency percentiles;
- :mod:`repro.serving.load` — seeded synthetic request streams plus
  the threaded load driver (the ``repro serve`` engine), which serves
  from threads of the calling process.

See ``docs/serving.md``.
"""

from repro.serving.cache import PredictionCache, quantize_features
from repro.serving.load import (
    run_load,
    synthetic_feature_pool,
    synthetic_requests,
)
from repro.serving.objectives import OBJECTIVE_KINDS, Advice, Objective
from repro.serving.registry import (
    REGISTRY_SCHEMA_VERSION,
    ModelManifest,
    ModelRegistry,
    VerifyReport,
)
from repro.serving.service import AdvisorService
from repro.serving.stats import LatencyReservoir, ServiceStats

__all__ = [
    "OBJECTIVE_KINDS",
    "REGISTRY_SCHEMA_VERSION",
    "Advice",
    "AdvisorService",
    "LatencyReservoir",
    "ModelManifest",
    "ModelRegistry",
    "Objective",
    "PredictionCache",
    "ServiceStats",
    "VerifyReport",
    "quantize_features",
    "run_load",
    "synthetic_feature_pool",
    "synthetic_requests",
]
