"""Campaign execution runtime: per-task seeds + persistent result cache.

The paper's protocol (§5.1) sweeps every application over up to 196
frequency bins x a workload grid x 5 repetitions — the hottest path when
reproducing Figures 9-13. This package turns that sweep from a serial
O(grid) recompute into an incremental campaign:

- :mod:`repro.runtime.seeding` — deterministic per-task seeds derived
  from a campaign seed plus the task key, so results are bit-identical
  whichever points ran before or came from the cache;
- :mod:`repro.runtime.cache` — a content-addressed on-disk cache keyed
  by a stable hash of (device spec, app config, frequency, repetitions,
  seed, schema version), so re-runs and interrupted campaigns resume
  instantly;
- :mod:`repro.runtime.engine` — the :class:`CampaignEngine` that runs
  the (input-features x frequency) measurement grid in the calling
  process and merges per-point results back into
  :class:`repro.synergy.runner.CharacterizationResult` objects.

See ``docs/campaign-engine.md`` for the cache layout and invalidation
rules.
"""

from repro.runtime.cache import CACHE_SCHEMA_VERSION, CacheStats, ResultCache
from repro.runtime.engine import (
    CampaignEngine,
    CampaignStats,
    MeasurementTask,
    PointMeasurement,
    app_fingerprint,
    execute_task,
)
from repro.runtime.seeding import canonical_json, canonicalize, derive_task_seed, stable_digest

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "ResultCache",
    "CampaignEngine",
    "CampaignStats",
    "MeasurementTask",
    "PointMeasurement",
    "app_fingerprint",
    "execute_task",
    "canonical_json",
    "canonicalize",
    "derive_task_seed",
    "stable_digest",
]
