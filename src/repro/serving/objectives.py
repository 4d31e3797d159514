"""Advisor objectives: turning a predicted trade-off profile into advice.

The paper's end product (§5.2.2) is a model that recommends
Pareto-optimal frequencies for an unseen input; related work frames the
*online* uses of such a model: Ilager et al. (2020) pick the
minimum-energy clock that still meets a deadline, and DSO-style
optimizers cap power while chasing throughput. Each
:class:`Objective` is a pure function of a
:class:`~repro.modeling.domain.TradeoffPrediction` — no hidden state, no
randomness — so the advice for a given (model, features, grid,
objective) tuple is deterministic and safely cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.errors import ServingError
from repro.modeling.domain import TradeoffPrediction

__all__ = ["OBJECTIVE_KINDS", "Objective", "Advice"]

#: Supported objective kinds (the CLI exposes exactly these).
OBJECTIVE_KINDS = ("tradeoff", "min_energy_deadline", "max_speedup_power")


@dataclass(frozen=True)
class Advice:
    """One frequency recommendation with its predicted consequences.

    Compared *exactly* (dataclass float equality) by the determinism
    tests: two Advice values are the same answer only when every
    predicted figure matches bitwise.
    """

    objective: str
    freq_mhz: float
    predicted_time_s: float
    predicted_energy_j: float
    predicted_speedup: float
    predicted_normalized_energy: float
    #: The predicted Pareto-optimal frequency set of the profile the
    #: advice was taken from (§5.2.2 step 3) — callers get the full menu
    #: alongside the single pick.
    pareto_freqs_mhz: Tuple[float, ...]
    #: Whether the picked frequency is itself on the predicted front.
    on_pareto_front: bool
    #: Memory clock of a 2-D (core, mem) recommendation; ``None`` for
    #: classic core-only advice (the legacy wire format is unchanged).
    mem_freq_mhz: Optional[float] = None
    #: Pareto-optimal ``(f_core, f_mem)`` pairs of a 2-D profile grid.
    pareto_pairs_mhz: Optional[Tuple[Tuple[float, float], ...]] = None

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (JSON output and reports).

        2-D keys appear only on 2-D advice so core-only output stays
        byte-identical to the pre-memory-DVFS format.
        """
        out = {
            "objective": self.objective,
            "freq_mhz": self.freq_mhz,
            "predicted_time_s": self.predicted_time_s,
            "predicted_energy_j": self.predicted_energy_j,
            "predicted_speedup": self.predicted_speedup,
            "predicted_normalized_energy": self.predicted_normalized_energy,
            "pareto_freqs_mhz": list(self.pareto_freqs_mhz),
            "on_pareto_front": self.on_pareto_front,
        }
        if self.mem_freq_mhz is not None:
            out["mem_freq_mhz"] = self.mem_freq_mhz
            out["pareto_pairs_mhz"] = [list(p) for p in (self.pareto_pairs_mhz or ())]
        return out


@dataclass(frozen=True)
class Objective:
    """A declarative advice objective.

    Use the factory classmethods; they validate the parameters the kind
    requires:

    - :meth:`tradeoff` — balanced speedup/energy pick: the profile point
      minimizing normalized energy-delay product ``ne / sp`` (the
      knee-point heuristic; always on the predicted Pareto front).
    - :meth:`min_energy_deadline` — Ilager-style: least predicted energy
      among configurations whose predicted runtime meets the deadline.
    - :meth:`max_speedup_power` — most predicted speedup among
      configurations whose predicted average power (``E / t``) stays
      under the cap.

    Being a frozen dataclass, an objective canonicalizes through
    :func:`repro.runtime.seeding.canonical_json` and therefore
    participates directly in the advisor's LRU cache key.
    """

    kind: str = "tradeoff"
    deadline_s: Optional[float] = None
    power_w: Optional[float] = None

    # -- factories ---------------------------------------------------------
    @classmethod
    def tradeoff(cls) -> "Objective":
        """Balanced speedup/energy trade-off (minimum normalized EDP)."""
        return cls(kind="tradeoff")

    @classmethod
    def min_energy_deadline(cls, deadline_s: float) -> "Objective":
        """Least predicted energy with predicted time <= ``deadline_s``."""
        if not np.isfinite(deadline_s) or deadline_s <= 0:
            raise ServingError(f"deadline_s must be positive, got {deadline_s!r}")
        return cls(kind="min_energy_deadline", deadline_s=float(deadline_s))

    @classmethod
    def max_speedup_power(cls, power_w: float) -> "Objective":
        """Most predicted speedup with predicted average power <= ``power_w``."""
        if not np.isfinite(power_w) or power_w <= 0:
            raise ServingError(f"power_w must be positive, got {power_w!r}")
        return cls(kind="max_speedup_power", power_w=float(power_w))

    @classmethod
    def from_kind(
        cls,
        kind: str,
        deadline_s: Optional[float] = None,
        power_w: Optional[float] = None,
    ) -> "Objective":
        """Build from a kind string plus parameters (the CLI entry path)."""
        if kind == "tradeoff":
            return cls.tradeoff()
        if kind == "min_energy_deadline":
            if deadline_s is None:
                raise ServingError("min_energy_deadline requires deadline_s")
            return cls.min_energy_deadline(deadline_s)
        if kind == "max_speedup_power":
            if power_w is None:
                raise ServingError("max_speedup_power requires power_w")
            return cls.max_speedup_power(power_w)
        raise ServingError(
            f"unknown objective kind {kind!r}; expected one of {OBJECTIVE_KINDS}"
        )

    # -- evaluation --------------------------------------------------------
    def _select(
        self,
        sp: np.ndarray,
        ne: np.ndarray,
        times: np.ndarray,
        energies: np.ndarray,
    ) -> int:
        """Pick the objective's configuration index over parallel arrays.

        Deterministic: every selection is an ``argmin``/``argmax`` (first
        index wins ties), so equal profiles always produce bitwise-equal
        advice. Raises :class:`ServingError` when no configuration
        satisfies the constraint.
        """
        if self.kind == "tradeoff":
            return int(np.argmin(ne / sp))
        if self.kind == "min_energy_deadline":
            mask = times <= self.deadline_s
            if not mask.any():
                raise ServingError(
                    f"no configuration meets the {self.deadline_s} s deadline "
                    f"(fastest predicted time: {float(times.min()):.6g} s)"
                )
            candidates = np.flatnonzero(mask)
            return int(candidates[int(np.argmin(energies[mask]))])
        if self.kind == "max_speedup_power":
            power = energies / times
            mask = power <= self.power_w
            if not mask.any():
                raise ServingError(
                    f"no configuration stays under {self.power_w} W "
                    f"(lowest predicted power: {float(power.min()):.6g} W)"
                )
            candidates = np.flatnonzero(mask)
            return int(candidates[int(np.argmax(sp[mask]))])
        raise ServingError(f"unknown objective kind {self.kind!r}")

    def evaluate(self, prediction: TradeoffPrediction) -> Advice:
        """Apply this objective to one predicted profile.

        A 2-D profile (one with ``mem_freqs_mhz``, see
        :func:`~repro.modeling.domain.stack_memory_rows`) is searched as
        one flattened ``(f_core, f_mem)`` grid, and the advice then also
        carries the winning memory clock and the grid-wide Pareto pairs.
        """
        sp = prediction.speedups
        ne = prediction.normalized_energies
        times = prediction.times_s
        energies = prediction.energies_j
        idx = self._select(sp, ne, times, energies)

        front = prediction.pareto_front()
        pareto_freqs = tuple(float(f) for f in front.freqs_mhz)
        freq = float(prediction.freqs_mhz[idx])
        mems = prediction.mem_freqs_mhz
        mem_freq = None if mems is None else float(mems[idx])
        return Advice(
            objective=self.kind,
            freq_mhz=freq,
            predicted_time_s=float(times[idx]),
            predicted_energy_j=float(energies[idx]),
            predicted_speedup=float(sp[idx]),
            predicted_normalized_energy=float(ne[idx]),
            pareto_freqs_mhz=pareto_freqs,
            on_pareto_front=front.contains_freq(freq, mem_freq_mhz=mem_freq),
            mem_freq_mhz=mem_freq,
            pareto_pairs_mhz=(
                None if mems is None else tuple((p.freq_mhz, p.mem_freq_mhz) for p in front)
            ),
        )

    def describe(self) -> str:
        """One-line human description (CLI output)."""
        if self.kind == "min_energy_deadline":
            return f"min energy under deadline {self.deadline_s} s"
        if self.kind == "max_speedup_power":
            return f"max speedup under power cap {self.power_w} W"
        return "balanced speedup/energy trade-off (min EDP)"
