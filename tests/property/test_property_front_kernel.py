"""Hypothesis properties: the array front kernel equals the scan loop, bit for bit.

``front_indices`` (one sort and one running minimum) replaced a Python
scan over the sorted points, and ``Objective.evaluate`` now reads its
advice from those indices instead of a :class:`ParetoFront`. Profiles of
0-40 points draw their coordinates from a few values, so exact ties on
speedup, on energy and on both are common, and their clocks from a grid
with neighbours closer than the 0.51 MHz match tolerance. The mask, the
front order and every advice field must equal the oracles in
``tests/pareto/scan.py``; floats are compared by their bytes, since
``==`` cannot tell ``-0.0`` from ``0.0``.
"""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServingError
from repro.modeling.domain import TradeoffPrediction
from repro.pareto.front import extract_front, pareto_mask
from repro.serving import Objective
from tests.pareto.scan import evaluate_with_front, extract_front_scan, pareto_mask_scan

#: Few distinct coordinates, so that ties are the rule rather than the exception.
TIED = (-0.0, 0.0, 0.5, 1.0, 1.0000000000000002, 2.0, 3.5)
#: Clocks with neighbours 0.2, 0.3 and 0.51 MHz apart.
CORE_CLOCKS = (135.0, 135.2, 135.5, 135.51, 700.0, 700.3, 1282.0, 1597.0)
MEM_CLOCKS = (810.0, 810.2, 810.51, 1215.0)


def _coordinate(low=-1e6):
    return st.sampled_from([v for v in TIED if v >= low]) | st.floats(
        min_value=max(low, -1e6), max_value=1e6, allow_nan=False, allow_infinity=False
    )


@st.composite
def planes(draw):
    """Parallel (speedups, energies), with points repeated to force exact ties."""
    points = draw(st.lists(st.tuples(_coordinate(), _coordinate()), max_size=40))
    if points:
        repeats = draw(st.lists(st.integers(0, len(points) - 1), max_size=8))
        points += [points[i] for i in repeats]
        points = draw(st.permutations(points))[:40]
    sp = np.array([p[0] for p in points], dtype=float)
    en = np.array([p[1] for p in points], dtype=float)
    return sp, en


@st.composite
def profiles(draw):
    """A non-empty 1-D or 2-D trade-off profile with positive figures."""
    n = draw(st.integers(1, 40))
    positive = _coordinate(low=1e-9)
    column = st.lists(positive, min_size=n, max_size=n)
    freqs = draw(st.lists(st.sampled_from(CORE_CLOCKS), min_size=n, max_size=n))
    mems = None
    if draw(st.booleans()):
        mems = np.array(draw(st.lists(st.sampled_from(MEM_CLOCKS), min_size=n, max_size=n)))
    return TradeoffPrediction(
        freqs_mhz=np.array(freqs),
        times_s=np.array(draw(column)),
        energies_j=np.array(draw(column)),
        speedups=np.array(draw(column)),
        normalized_energies=np.array(draw(column)),
        baseline_freq_mhz=1282.0,
        mem_freqs_mhz=mems,
    )


def _bits(value):
    """A comparable image of ``value`` in which floats are their 8 bytes."""
    if isinstance(value, float):
        return struct.pack("d", value)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _point_bits(front):
    return [
        _bits((p.speedup, p.energy, p.freq_mhz, p.mem_freq_mhz)) for p in front.points
    ]


@given(planes())
@settings(max_examples=400, deadline=None)
def test_mask_equals_the_scan_loop(plane):
    sp, en = plane
    assert np.array_equal(pareto_mask(sp, en), pareto_mask_scan(sp, en))


@given(planes(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_front_order_equals_the_scan_front(plane, two_d):
    sp, en = plane
    freqs = np.resize(np.array(CORE_CLOCKS), sp.size)
    mems = np.resize(np.array(MEM_CLOCKS), sp.size) if two_d else None
    got = extract_front(sp, en, freqs, mems)
    want = extract_front_scan(sp, en, freqs, mems)
    assert _point_bits(got) == _point_bits(want)


@given(profiles(), st.integers(0, 39), st.floats(0.5, 2.0))
@settings(max_examples=400, deadline=None)
def test_advice_equals_the_front_object_advice(profile, pick, scale):
    pick %= profile.times_s.size
    power = profile.energies_j[pick] / profile.times_s[pick]
    for objective in (
        Objective.tradeoff(),
        Objective.min_energy_deadline(float(profile.times_s[pick]) * scale),
        Objective.max_speedup_power(float(power) * scale),
    ):
        try:
            want = evaluate_with_front(objective, profile)
        except ServingError as exc:
            try:
                objective.evaluate(profile)
            except ServingError as got:
                assert str(got) == str(exc)
            else:
                raise AssertionError("the oracle raised, evaluate did not")
            continue
        got = objective.evaluate(profile)
        assert [_bits(getattr(got, f)) for f in got.__dataclass_fields__] == [
            _bits(getattr(want, f)) for f in want.__dataclass_fields__
        ]
