"""The repetition median is ``np.median``'s, bit for bit.

``measure`` and ``replay_measure`` report each point's median time and
energy through :func:`repro.synergy.runner.median`, which sorts a few
floats instead of calling ``np.median``. Campaign values and cache
entries stay byte-identical only if the two agree on every input: ties,
NaN, signed zeros and infinities included.
"""

import struct
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synergy import runner
from repro.synergy.runner import median

SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1.0, -1.0, 5e-324, 1.5e308]

values = st.lists(
    st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True),
    min_size=1,
    max_size=9,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _np_median(arr: np.ndarray) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(np.median(arr))


@settings(max_examples=800, deadline=None)
@given(values)
def test_median_equals_np_median_bitwise(xs):
    arr = np.array(xs, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = median(arr)
    assert type(got) is float
    assert _bits(got) == _bits(_np_median(arr))


def test_signed_zero_middles_follow_np_median():
    for xs in ([-0.0], [-0.0, -0.0], [1.0, -0.0, -0.0], [-0.0, 2.0], [-0.0, -0.0, 0.0]):
        arr = np.array(xs)
        assert _bits(median(arr)) == _bits(_np_median(arr)), xs


def test_median_of_finite_nonzero_values_does_not_call_np_median(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.median called")

    monkeypatch.setattr(runner.np, "median", refuse)
    assert median(np.array([3.0, 1.0, 2.0])) == 2.0
    assert median(np.array([4.0, 1.0, 2.0, 3.0])) == 2.5
