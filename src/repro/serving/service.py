"""The online frequency advisor: low-latency serving of a trained model.

:class:`AdvisorService` answers ``advise(features, objective)`` requests
from a registry-resolved :class:`~repro.modeling.domain.DomainSpecificModel`
over one serving grid: the core clocks, optionally crossed with memory
clocks for a model trained on a 2-D ``(f_core, f_mem)`` sweep. It adds
three layers of machinery a bare model call lacks:

1. an **LRU advice cache** keyed on (model digest, quantized features,
   frequency grid, objective) — repeated traffic (the common case for a
   deployed tuner fronting a job queue) short-circuits to a lookup;
2. **micro-batching**: concurrent cache-missing requests are coalesced
   into one vectorized pass through the model's
   :meth:`~repro.modeling.domain.DomainSpecificModel.predict_tradeoff_batch`
   (one gather from the forest's cell table for the whole batch, with a
   walk only for cells the table has not seen), with duplicate feature
   tuples inside a batch sharing a single prediction. Each request's
   objective then reads its advice and the predicted Pareto front from
   index arrays over its profile (:mod:`repro.pareto.front`);
3. **service counters** (requests, batch sizes, cache hits, latency
   reservoir percentiles) for the stats report.

Determinism contract: batching and caching are *transparent*. The
batched forest path is bit-identical to the scalar path and objectives
are pure, so N worker threads issuing M requests receive advice
bitwise-equal to a serial replay of the same stream — the property the
serving test suite enforces.

The batching protocol is leader/follower: a cache-missing request
enqueues itself; whoever finds no evaluation in flight drains the queue
(up to ``max_batch``) and evaluates it while later arrivals pile up
behind the next leader. No timers, no waiting for a batch to "fill" —
batch sizes emerge from actual concurrency, and a serial caller always
sees batch size 1. A failure stays with the requests it concerns: a
model error fails its batch, an objective error only its own request,
and every request of a batch completes.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ServingError
from repro.modeling.domain import DomainSpecificModel, TradeoffPrediction, stack_memory_rows
from repro.serving.cache import AdviceKeyMaker, PredictionCache, quantize_features
from repro.serving.objectives import Advice, Objective
from repro.serving.registry import ModelManifest, ModelRegistry
from repro.serving.stats import ServiceStats, now_s
from repro.utils.validation import ensure_1d

__all__ = ["AdvisorService", "grid_axis"]


def grid_axis(freqs_mhz: Sequence[float], name: str) -> np.ndarray:
    """One serving-grid axis: a non-empty 1-D array of finite clocks > 0 MHz."""
    axis = ensure_1d(freqs_mhz, name)
    if axis.size == 0:
        raise ServingError(f"serving {name} grid must be non-empty")
    bad = axis[~(np.isfinite(axis) & (axis > 0))]
    if bad.size:
        raise ServingError(
            f"serving {name} grid must hold finite clocks > 0 MHz, got {bad.tolist()}"
        )
    return axis


class _Slot:
    """One in-flight request waiting for its micro-batch to complete.

    ``keys`` is the key maker that made ``key``: a slot keyed before a
    :meth:`AdvisorService.swap_model` is evaluated by the new model, so
    its advice must not be cached under the old model's key.
    """

    __slots__ = ("key", "keys", "features", "objective", "result", "error", "done")

    def __init__(
        self, key: str, keys: AdviceKeyMaker, features: Tuple[float, ...], objective: Objective
    ):
        self.key = key
        self.keys = keys
        self.features = features
        self.objective = objective
        self.result: Optional[Advice] = None
        self.error: Optional[BaseException] = None
        self.done = False


class AdvisorService:
    """Thread-safe frequency-advice server over one model version.

    Parameters
    ----------
    model:
        A fitted :class:`DomainSpecificModel`.
    freqs_mhz:
        The serving frequency grid every request is evaluated over
        (typically the device table or a subsample of it).
    model_digest:
        Content digest identifying the model in cache keys — use the
        registry manifest's ``artifact_sha256``. Distinct models must
        have distinct digests or their cached advice would collide.
    max_batch:
        Upper bound on requests coalesced into one vectorized pass.
    cache_size:
        LRU advice-cache capacity (0 disables caching).
    mem_freqs_mhz:
        Memory clocks that, crossed with ``freqs_mhz``, make the serving
        grid 2-D. Only for models whose last feature is the memory clock
        (:data:`repro.experiments.datasets.MEM_FEATURE_NAME`): requests
        then pass the *domain* features only and get a ``(core, mem)``
        pair back. The model's trade-off speedup is normalized per
        memory clock, so the trade-off pick is an approximation there;
        deadline and power-cap objectives compare absolute predictions.
    """

    def __init__(
        self,
        model: DomainSpecificModel,
        freqs_mhz: Sequence[float],
        model_digest: str = "unregistered",
        max_batch: int = 16,
        cache_size: int = 2048,
        manifest: Optional[ModelManifest] = None,
        mem_freqs_mhz: Optional[Sequence[float]] = None,
    ) -> None:
        self.model = model
        self.freqs_mhz = grid_axis(freqs_mhz, "frequency")
        self.mem_freqs_mhz = (
            None if mem_freqs_mhz is None else grid_axis(mem_freqs_mhz, "memory-frequency")
        )
        self.model_digest = str(model_digest)
        if max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        self.max_batch = int(max_batch)
        self.manifest = manifest
        self.cache = PredictionCache(cache_size)
        self._keys = AdviceKeyMaker(self.model_digest, self.freqs_mhz, self.mem_freqs_mhz)
        self.stats = ServiceStats()
        self._cond = threading.Condition()
        self._busy = False
        self._pending: List[_Slot] = []
        self._outcome_hooks: List[Callable] = []

    # ------------------------------------------------------------------
    # construction from a registry
    # ------------------------------------------------------------------
    @classmethod
    def from_registry(
        cls,
        registry: ModelRegistry,
        name: str,
        freqs_mhz: Sequence[float],
        version: Optional[int] = None,
        max_batch: int = 16,
        cache_size: int = 2048,
        mem_freqs_mhz: Optional[Sequence[float]] = None,
    ) -> "AdvisorService":
        """Resolve (integrity-verified) a registered model and serve it."""
        model, manifest = registry.resolve(name, version)
        return cls(
            model,
            freqs_mhz,
            model_digest=manifest.artifact_sha256,
            max_batch=max_batch,
            cache_size=cache_size,
            manifest=manifest,
            mem_freqs_mhz=mem_freqs_mhz,
        )

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def advise(self, features: Sequence[float], objective: Optional[Objective] = None) -> Advice:
        """Recommend a frequency for one input under an objective.

        Safe to call from any number of threads; the answer for a given
        (features, objective) is identical whatever the interleaving.
        On a 2-D serving grid ``features`` are the domain features (the
        model's memory-clock feature excluded) and the advice names a
        ``(core, mem)`` pair. Raises :class:`ServingError` for infeasible
        objectives.
        """
        t0 = now_s()
        if objective is None:
            objective = Objective.tradeoff()
        elif not isinstance(objective, Objective):
            raise ServingError(f"objective must be an Objective, got {type(objective).__name__}")
        feats = quantize_features(features)
        names = self.model.feature_names
        if self.mem_freqs_mhz is None:
            if len(feats) != len(names):
                raise ServingError(
                    f"expected {len(names)} features {names}, got {len(feats)}"
                )
        elif len(feats) + 1 != len(names):
            raise ServingError(
                f"expected {len(names) - 1} domain features (model features "
                f"{names} end with the memory clock), got {len(feats)}"
            )
        keys = self._keys
        key = keys.key(feats, objective)

        cached = self.cache.get(key)
        if cached is not None:
            with self._cond:
                self.stats.requests += 1
                self.stats.cache_hits += 1
            self.stats.latency.observe(now_s() - t0)
            return cached

        slot = _Slot(key, keys, feats, objective)
        with self._cond:
            self._pending.append(slot)
        # Leader/follower loop. A leader drains the *oldest* pending slots,
        # which may not include its own when max_batch older requests are
        # queued ahead of it — so after serving a batch it loops back until
        # its own slot has been evaluated (by itself or another leader).
        while True:
            batch: Optional[List[_Slot]] = None
            with self._cond:
                while True:
                    if slot.done:
                        break
                    # An unfinished slot is pending or in the running
                    # batch, so a new leader never takes an empty one.
                    if not self._busy and self._pending:
                        # Become the leader: take the oldest pending slots
                        # (up to max_batch) and evaluate them outside the
                        # lock while later arrivals queue behind us.
                        self._busy = True
                        batch = self._pending[: self.max_batch]
                        del self._pending[: self.max_batch]
                        break
                    self._cond.wait()
            if batch is None:
                break  # our slot is done
            try:
                self._evaluate_batch(batch)
            finally:
                with self._cond:
                    self._busy = False
                    self._cond.notify_all()
            if slot.done:
                break

        with self._cond:
            self.stats.requests += 1
            if slot.error is not None:
                self.stats.errors += 1
        self.stats.latency.observe(now_s() - t0)
        if slot.error is not None:
            raise slot.error
        assert slot.result is not None
        return slot.result

    # ------------------------------------------------------------------
    # batch evaluation (leader only)
    # ------------------------------------------------------------------
    def _evaluate_batch(self, batch: List[_Slot]) -> None:
        """Predict once per distinct feature tuple, advise every slot.

        Every slot in the batch is *always* marked done, so follower
        threads can never be stranded waiting on a batch that died. An
        exception is confined to the slots it concerns: a failed model
        call to the whole batch, a failed objective to its own slot.
        Each slot's caller re-raises its own error.
        """
        groups: Dict[Tuple[float, ...], List[_Slot]] = {}
        for slot in batch:
            groups.setdefault(slot.features, []).append(slot)
        feature_groups = list(groups)
        try:
            predictions = self._profiles(feature_groups)
        except BaseException as exc:
            with self._cond:
                for slot in batch:
                    slot.error = exc
                    slot.done = True
            return
        for feats, prediction in zip(feature_groups, predictions):
            for slot in groups[feats]:
                try:
                    slot.result = slot.objective.evaluate(prediction)
                except BaseException as exc:
                    slot.error = exc
                else:
                    if slot.keys is self._keys:
                        self.cache.put(slot.key, slot.result)
        with self._cond:
            self.stats.batches += 1
            self.stats.batch_size_sum += len(batch)
            self.stats.batch_size_max = max(self.stats.batch_size_max, len(batch))
            self.stats.coalesced += len(batch) - len(feature_groups)
            self.stats.predictions_computed += len(feature_groups)
            self.stats.evaluated += len(batch)
            for slot in batch:
                slot.done = True

    def _profiles(self, feature_groups: List[Tuple[float, ...]]) -> List[TradeoffPrediction]:
        """One trade-off profile over the serving grid per feature group.

        A 2-D grid expands each group into one model row per memory clock
        inside the same single batched call, then stacks each group's rows
        in memory-grid order.
        """
        if self.mem_freqs_mhz is None:
            return self.model.predict_tradeoff_batch(feature_groups, self.freqs_mhz)
        mems = self.mem_freqs_mhz.tolist()
        rows = self.model.predict_tradeoff_batch(
            [feats + (m,) for feats in feature_groups for m in mems], self.freqs_mhz
        )
        return [
            stack_memory_rows(zip(mems, rows[i : i + len(mems)]))
            for i in range(0, len(rows), len(mems))
        ]

    # ------------------------------------------------------------------
    # lifecycle integration
    # ------------------------------------------------------------------
    def add_outcome_hook(self, hook: Callable) -> None:
        """Subscribe to measured outcomes of served advice.

        Each hook is called as ``hook(features, advice, measured_time_s,
        measured_energy_j, model_digest)`` from :meth:`record_outcome` —
        the feedback channel the lifecycle loop's
        :class:`~repro.lifecycle.OutcomeLog` plugs into.
        """
        with self._cond:
            self._outcome_hooks.append(hook)

    def record_outcome(
        self,
        features: Sequence[float],
        advice: Advice,
        measured_time_s: float,
        measured_energy_j: float,
    ) -> None:
        """Report what actually happened after following ``advice``.

        Forwards the observation — tagged with the digest of the model
        *currently serving* — to every registered outcome hook. The
        service itself keeps no outcome state; hooks own their windows.
        """
        with self._cond:
            hooks = list(self._outcome_hooks)
            digest = self.model_digest
        for hook in hooks:
            hook(features, advice, measured_time_s, measured_energy_j, digest)

    def swap_model(
        self,
        model: DomainSpecificModel,
        model_digest: str,
        manifest: Optional[ModelManifest] = None,
    ) -> None:
        """Atomically replace the served model (canary promotion path).

        Waits for any in-flight micro-batch to drain, then swaps model,
        digest, and key maker together. The advice cache needs no
        explicit flush: keys embed the model digest, so entries cached
        under the old model simply become unreachable and age out of the
        LRU. Requests issued after this returns are served by the new
        model; the determinism contract is preserved on either side of
        the swap. A request keyed before the swap but evaluated after it
        is answered by the new model and not cached.
        """
        with self._cond:
            while self._busy or self._pending:
                self._cond.wait()
            self.model = model
            self.model_digest = str(model_digest)
            self.manifest = manifest
            self._keys = AdviceKeyMaker(self.model_digest, self.freqs_mhz, self.mem_freqs_mhz)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Human-readable stats summary including cache counters."""
        title = "serving stats"
        if self.manifest is not None:
            title = f"serving stats — {self.manifest.ref} ({self.manifest.app})"
        return self.stats.report(title, cache=self.cache.as_dict())

    def as_dict(self) -> Dict[str, object]:
        """Machine-readable stats + cache snapshot (benchmarks, CI)."""
        record: Dict[str, object] = {
            "model_digest": self.model_digest,
            "freq_grid_points": int(self.freqs_mhz.size),
            "max_batch": self.max_batch,
            "stats": self.stats.as_dict(),
            "cache": self.cache.as_dict(),
        }
        if self.manifest is not None:
            record["model"] = self.manifest.as_dict()
        return record
