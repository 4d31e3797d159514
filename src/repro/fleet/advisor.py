"""Fleet-wide frequency advice through the combined SoA forest pool.

One simulated tick may place hundreds of jobs, but a fleet workload
draws them from a handful of job types, and a profile depends only on
the type's features and the frequency grid. The pre-SoA way to advise
them is one :meth:`~repro.modeling.DomainSpecificModel.predict_tradeoff`
call per job — ``4 x n_estimators`` per-tree Python walks each — which
is exactly what the naive reference engine does (and why it is slow).
The fleet advisor instead predicts **every** job type once per run
through :meth:`~repro.modeling.DomainSpecificModel.predict_tradeoff_batch`
— one traversal of the combined four-submodel
:class:`~repro.ml.soa.FlatForest` node pool — and hands back a profile
table: per-type ``times``/``energies`` rows that the tick loop gathers
by job type.

Bit-transparency: profiles are deterministic functions of the feature
tuple and the grid, and ``predict_tradeoff_batch`` is documented (and
property-tested) bit-identical to scalar ``predict_tradeoff``, so the
table rows equal the reference engine's uncached scalar calls
float-for-float.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["FleetAdvisor"]


class FleetAdvisor:
    """Trade-off profiles over one fleet frequency grid."""

    def __init__(self, model, freqs_mhz: np.ndarray) -> None:
        self.model = model
        self.freqs_mhz = np.asarray(freqs_mhz, dtype=float)

    def profile(self, features: Sequence[float]):
        """Uncached scalar prediction — the naive reference path.

        Deliberately performs the full per-request model call every
        time (no memoization), mirroring what a per-GPU object loop
        built on ``AdvisorService.advise`` would pay.
        """
        return self.model.predict_tradeoff(list(features), self.freqs_mhz)

    def profiles(
        self, features_batch: Sequence[Sequence[float]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked ``(times, energies)`` tables, one row per input row.

        Both are ``(len(features_batch), F)`` arrays over the grid, from
        a single ``predict_tradeoff_batch`` call (rows may repeat). Row
        *i* equals ``profile(features_batch[i])``'s ``times_s`` /
        ``energies_j`` bitwise.
        """
        profs = self.model.predict_tradeoff_batch(features_batch, self.freqs_mhz)
        times = np.stack([p.times_s for p in profs])
        energies = np.stack([p.energies_j for p in profs])
        return times, energies
