"""The scan-loop front and the front-object advice: oracles of the array kernel.

``repro.pareto.front.front_indices`` finds a front with one sort and one
running minimum, and ``Objective.evaluate`` reads its advice from those
indices. These are the implementations they replaced: a Python scan over
the sorted points, a :class:`ParetoFront` of :class:`ParetoPoint` objects
per profile, and membership through :meth:`ParetoFront.contains_freq`.
The tests require the two to agree bit for bit.
"""

from itertools import repeat

import numpy as np

from repro.pareto.front import ParetoFront, ParetoPoint
from repro.serving.objectives import Advice
from repro.utils.validation import check_finite_array


def pareto_mask_scan(speedups, energies) -> np.ndarray:
    """Non-dominated mask by a scan over (speedup desc, energy asc) order."""
    sp = check_finite_array(speedups, "speedups").ravel()
    en = check_finite_array(energies, "energies").ravel()
    if sp.shape != en.shape:
        raise ValueError("speedups and energies must have the same length")
    n = sp.size
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    order = np.lexsort((en, -sp))  # speedup desc, then energy asc
    best_energy = np.inf
    prev_sp = np.nan
    prev_en = np.nan
    for idx in order:
        s, e = sp[idx], en[idx]
        if e < best_energy:
            mask[idx] = True
            best_energy = e
            prev_sp, prev_en = s, e
        elif e == best_energy and s == prev_sp and e == prev_en:
            # exact duplicate of the previously kept point: skip
            continue
    return mask


def extract_front_scan(speedups, energies, freqs_mhz, mem_freqs_mhz=None) -> ParetoFront:
    """A :class:`ParetoFront` built from :func:`pareto_mask_scan`."""
    sp = check_finite_array(speedups, "speedups").ravel()
    en = check_finite_array(energies, "energies").ravel()
    fr = check_finite_array(freqs_mhz, "freqs_mhz").ravel()
    mask = pareto_mask_scan(sp, en)
    if mem_freqs_mhz is None:
        mems = repeat(None)
    else:
        mems = check_finite_array(mem_freqs_mhz, "mem_freqs_mhz").ravel()[mask].tolist()
    pts = [
        ParetoPoint(speedup=float(s), energy=float(e), freq_mhz=float(f), mem_freq_mhz=m)
        for s, e, f, m in zip(sp[mask], en[mask], fr[mask], mems)
    ]
    return ParetoFront(pts)


def evaluate_with_front(objective, prediction) -> Advice:
    """``objective``'s advice read off a :class:`ParetoFront` of the profile."""
    sp = prediction.speedups
    ne = prediction.normalized_energies
    times = prediction.times_s
    energies = prediction.energies_j
    idx = objective._select(sp, ne, times, energies)

    front = extract_front_scan(sp, ne, prediction.freqs_mhz, prediction.mem_freqs_mhz)
    pareto_freqs = tuple(float(f) for f in front.freqs_mhz)
    freq = float(prediction.freqs_mhz[idx])
    mems = prediction.mem_freqs_mhz
    mem_freq = None if mems is None else float(mems[idx])
    return Advice(
        objective=objective.kind,
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
