"""Regenerate training data and register candidate model versions.

On drift the loop does not patch the serving model in place — it reruns
the paper's characterization protocol against the *current* workload
through the replay-based :class:`~repro.runtime.engine.CampaignEngine`
(the cheap path: record each app's launch sequence once, evaluate the
whole frequency sweep in one batched pass), fits a fresh
:class:`~repro.modeling.domain.DomainSpecificModel`, and registers it
as the next version of the served name. The candidate is *not*
promoted here; that is the canary gate's job.

Determinism: the campaign seed of generation *g* is derived from the
lifecycle seed and *g* through the same SHA-256 discipline as every
campaign task seed, the forest seed is fixed by the spec, and model
``.npz`` serialization is byte-deterministic — so generation *g* of two
identical lifecycle runs registers byte-identical artifacts with equal
digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import LifecycleError
from repro.runtime.seeding import derive_task_seed, stable_digest

__all__ = ["Retrainer"]


@dataclass(frozen=True)
class Retrainer:
    """Trains and registers candidate versions for one served model name.

    Parameters
    ----------
    registry:
        The :class:`~repro.serving.ModelRegistry` candidates register in.
    name:
        The served model name (candidates become its next version).
    feature_names:
        The model's input-feature names (must match the workload's apps).
    freqs_mhz:
        Training sweep frequencies (must include the baseline bin).
    baseline_freq_mhz:
        The clock training targets are normalized against.
    seed:
        The lifecycle seed; per-generation campaign seeds derive from it.
    repetitions, n_trees:
        Campaign repetitions and forest size.
    app:
        Application label recorded in the manifest.
    device_name:
        Built-in device the characterization campaign measures on.
    """

    registry: "object"
    name: str
    feature_names: Tuple[str, ...]
    freqs_mhz: Tuple[float, ...]
    baseline_freq_mhz: float
    seed: int = 42
    repetitions: int = 1
    n_trees: int = 12
    app: str = "unknown"
    device_name: str = "v100"

    def campaign_seed(self, generation: int) -> int:
        """The derived, decorrelated campaign seed of one generation."""
        return derive_task_seed(self.seed, "lifecycle-retrain", int(generation))

    def train_fingerprint(self, generation: int) -> str:
        """Content hash identifying exactly what this generation trained on."""
        return stable_digest(
            {
                "kind": "lifecycle-retrain",
                "generation": int(generation),
                "seed": self.seed,
                "campaign_seed": self.campaign_seed(generation),
                "feature_names": list(self.feature_names),
                "freqs_mhz": list(self.freqs_mhz),
                "baseline_freq_mhz": self.baseline_freq_mhz,
                "repetitions": self.repetitions,
                "n_trees": self.n_trees,
                "device": self.device_name,
            }
        )

    def retrain(self, apps: Sequence, generation: int):
        """Characterize → fit → register one candidate; returns its manifest.

        ``apps`` is the *live* workload (possibly drift-wrapped): the
        candidate learns the behaviour currently being served, keyed on
        the same feature tuples the serving layer sees.
        """
        if not apps:
            raise LifecycleError("retraining needs at least one workload application")
        from repro.experiments.datasets import characterize_apps
        from repro.io.serialization import encode_domain_model
        from repro.ml import RandomForestRegressor
        from repro.modeling import DomainSpecificModel
        from repro.runtime.engine import CampaignEngine
        from repro.synergy.api import builtin_device

        device = builtin_device(self.device_name, seed=self.campaign_seed(generation))
        engine = CampaignEngine(campaign_seed=self.campaign_seed(generation), method="replay")
        dataset = characterize_apps(
            device,
            apps,
            self.feature_names,
            list(self.freqs_mhz),
            repetitions=self.repetitions,
            engine=engine,
        ).dataset
        if len(dataset) == 0:
            raise LifecycleError(
                f"generation {generation}: characterization produced no samples"
            )
        forest_seed = self.campaign_seed(generation) % (2**31)
        model = DomainSpecificModel(
            self.feature_names,
            regressor_factory=lambda: RandomForestRegressor(
                n_estimators=self.n_trees, random_state=forest_seed
            ),
            baseline_freq_mhz=self.baseline_freq_mhz,
        ).fit(dataset)
        return self.registry.register(
            encode_domain_model(model),
            self.name,
            app=self.app,
            device_signature=device.gpu.spec.signature(),
            train_fingerprint=self.train_fingerprint(generation),
        )
