"""Unit tests for frequency tables and voltage curves."""

import numpy as np
import pytest

from repro.errors import FrequencyError
from repro.hw.dvfs import FrequencyTable, VoltageCurve


class TestFrequencyTable:
    def test_linear_v100_table(self):
        t = FrequencyTable.linear(135.0, 1597.0, 196, default_mhz=1282.0)
        assert len(t) == 196
        assert t.min_mhz == pytest.approx(135.0)
        assert t.max_mhz == pytest.approx(1597.0)
        assert t.step_mhz() == pytest.approx(7.497, abs=0.01)

    def test_default_is_snapped(self):
        t = FrequencyTable.linear(100.0, 200.0, 11, default_mhz=151.0)
        assert t.default_mhz == pytest.approx(150.0)

    def test_no_default(self):
        t = FrequencyTable.linear(100.0, 200.0, 11)
        assert t.default_mhz is None

    def test_snap_to_nearest(self):
        t = FrequencyTable([100.0, 200.0, 300.0])
        assert t.snap(240.0) == 200.0
        assert t.snap(260.0) == 300.0

    def test_snap_out_of_range_raises(self):
        t = FrequencyTable([100.0, 200.0])
        with pytest.raises(FrequencyError):
            t.snap(500.0)
        with pytest.raises(FrequencyError):
            t.snap(1.0)

    def test_snap_rejects_garbage(self):
        t = FrequencyTable([100.0])
        with pytest.raises(FrequencyError):
            t.snap(-5.0)
        with pytest.raises(FrequencyError):
            t.snap(float("nan"))

    def test_duplicates_collapsed_and_sorted(self):
        t = FrequencyTable([300.0, 100.0, 300.0, 200.0])
        assert list(t) == [100.0, 200.0, 300.0]

    def test_contains(self):
        t = FrequencyTable([100.0, 200.0])
        assert 100.0 in t
        assert 150.0 not in t

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FrequencyTable([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            FrequencyTable([0.0, 100.0])

    def test_subsample_includes_endpoints(self):
        t = FrequencyTable.linear(135.0, 1597.0, 196)
        sub = t.subsample(10)
        assert sub[0] == pytest.approx(135.0)
        assert sub[-1] == pytest.approx(1597.0)
        assert len(sub) == 10

    def test_subsample_full_when_count_large(self):
        t = FrequencyTable([100.0, 200.0, 300.0])
        assert t.subsample(10) == [100.0, 200.0, 300.0]

    def test_subsample_requires_two(self):
        t = FrequencyTable.linear(100.0, 200.0, 50)
        with pytest.raises(ValueError):
            t.subsample(1)

    def test_freqs_mhz_returns_copy(self):
        t = FrequencyTable([100.0, 200.0])
        arr = t.freqs_mhz
        arr[0] = 999.0
        assert t.min_mhz == 100.0


class TestVoltageCurve:
    def make(self, exponent=1.0):
        return VoltageCurve(
            v_min=0.7, v_max=1.1, f_min_mhz=135.0, f_knee_mhz=900.0,
            f_max_mhz=1597.0, exponent=exponent,
        )

    def test_flat_below_knee(self):
        c = self.make()
        assert c.voltage_at(135.0) == pytest.approx(0.7)
        assert c.voltage_at(900.0) == pytest.approx(0.7)

    def test_max_at_top(self):
        assert self.make().voltage_at(1597.0) == pytest.approx(1.1)

    def test_monotone_nondecreasing(self):
        c = self.make(exponent=2.0)
        f = np.linspace(135.0, 1597.0, 100)
        v = c.voltage_at(f)
        assert np.all(np.diff(v) >= -1e-12)

    def test_superlinear_exponent_concentrates_rise(self):
        lin = self.make(exponent=1.0)
        sq = self.make(exponent=2.0)
        mid = 1200.0
        assert sq.voltage_at(mid) < lin.voltage_at(mid)

    def test_normalized_v2f_is_one_at_max(self):
        assert self.make().normalized_v2f(1597.0) == pytest.approx(1.0)

    def test_normalized_v2f_monotone(self):
        c = self.make(exponent=2.0)
        f = np.linspace(135.0, 1597.0, 200)
        g = c.normalized_v2f(f)
        assert np.all(np.diff(g) > 0)

    def test_out_of_range_raises(self):
        with pytest.raises(FrequencyError):
            self.make().voltage_at(50.0)
        with pytest.raises(FrequencyError):
            self.make().voltage_at(2000.0)

    def test_invalid_curve_rejected(self):
        with pytest.raises(ValueError):
            VoltageCurve(v_min=1.2, v_max=1.0, f_min_mhz=100, f_knee_mhz=200, f_max_mhz=300)
        with pytest.raises(ValueError):
            VoltageCurve(v_min=0.7, v_max=1.0, f_min_mhz=300, f_knee_mhz=200, f_max_mhz=400)


def _boundary_tables():
    """Core AND memory tables of shipped devices, plus a synthetic one."""
    from repro.hw.specs import make_a100_spec, make_mi250_spec, make_v100_spec

    return {
        "synthetic": FrequencyTable.linear(100.0, 200.0, 11),
        "v100-core": make_v100_spec().core_freqs,
        "a100-core": make_a100_spec().core_freqs,
        "a100-mem": make_a100_spec().mem_freq_table,
        "mi250-mem": make_mi250_spec().mem_freq_table,
    }


@pytest.mark.parametrize("name", sorted(_boundary_tables()))
class TestSnapBoundaries:
    """Driver-mirror snap semantics at the table edges (core and memory).

    Requests snap onto the nearest bin; beyond half a bin outside the
    table's range they are rejected, exactly like out-of-range clock
    requests on real drivers.
    """

    def table(self, name):
        return _boundary_tables()[name]

    def test_exact_edges_snap_to_themselves(self, name):
        t = self.table(name)
        assert t.snap(t.min_mhz) == t.min_mhz
        assert t.snap(t.max_mhz) == t.max_mhz

    def test_half_bin_tolerance_below_the_lowest_bin(self, name):
        t = self.table(name)
        assert t.snap(t.min_mhz - 0.49 * t.step_mhz()) == t.min_mhz

    def test_half_bin_tolerance_above_the_highest_bin(self, name):
        t = self.table(name)
        assert t.snap(t.max_mhz + 0.49 * t.step_mhz()) == t.max_mhz

    def test_rejection_beyond_half_a_bin_below(self, name):
        t = self.table(name)
        with pytest.raises(FrequencyError):
            t.snap(t.min_mhz - 0.51 * t.step_mhz() - 0.01)

    def test_rejection_beyond_half_a_bin_above(self, name):
        t = self.table(name)
        with pytest.raises(FrequencyError):
            t.snap(t.max_mhz + 0.51 * t.step_mhz() + 0.01)

    def test_interior_midpoints_snap_to_an_adjacent_bin(self, name):
        t = self.table(name)
        freqs = t.freqs_mhz
        if freqs.size < 2:
            pytest.skip("single-entry table has no interior")
        lo, hi = float(freqs[0]), float(freqs[1])
        just_below_mid = lo + 0.499 * (hi - lo)
        just_above_mid = lo + 0.501 * (hi - lo)
        assert t.snap(just_below_mid) == lo
        assert t.snap(just_above_mid) == hi


class TestSingleEntryTableBoundaries:
    """A v1 spec's memory table: one bin, zero half-bin, exact-only snap."""

    def test_only_the_exact_entry_snaps(self):
        from repro.hw.specs import make_v100_spec

        t = make_v100_spec().mem_freq_table
        assert t.step_mhz() == 0.0
        assert t.snap(t.min_mhz) == t.min_mhz
        for off in (0.02, -0.02, 50.0):
            with pytest.raises(FrequencyError):
                t.snap(t.min_mhz + off)


@pytest.mark.parametrize("name", sorted(_boundary_tables()))
class TestStepComputedOnce:
    """The table is immutable, so its step is computed once, bitwise
    equal to the median spacing every snap used to recompute."""

    def test_step_is_the_median_spacing_bitwise(self, name):
        t = _boundary_tables()[name]
        expected = float(np.median(np.diff(t.freqs_mhz))) if len(t) > 1 else 0.0
        assert t.step_mhz().hex() == expected.hex()

    def test_snap_computes_no_median(self, name, monkeypatch):
        t = _boundary_tables()[name]
        calls = []
        median = np.median
        monkeypatch.setattr(np, "median", lambda *a, **k: calls.append(1) or median(*a, **k))
        for f in t.freqs_mhz:
            assert t.snap(f + 0.1 * t.step_mhz()) == f
        assert calls == []

    def test_table_array_is_read_only(self, name):
        t = _boundary_tables()[name]
        with pytest.raises(ValueError):
            t._freqs[0] = 1.0
        assert t.freqs_mhz.flags.writeable


def _argmin_snap(t, f):
    """The nearest bin as ``snap`` found it for every request: by ``argmin``."""
    freqs = t.freqs_mhz
    return float(freqs[int(np.argmin(np.abs(freqs - float(f))))])


@pytest.mark.parametrize("name", sorted(_boundary_tables()))
class TestSnapOfATableValue:
    """A request that is already a bin is returned as is, without the
    ``argmin``: a sweep's clocks are table values, and every pinned point
    snaps its own. Every other request behaves as before."""

    def test_every_bin_is_returned_without_argmin(self, name, monkeypatch):
        t = _boundary_tables()[name]
        calls = []
        argmin = np.argmin
        monkeypatch.setattr(np, "argmin", lambda *a, **k: calls.append(1) or argmin(*a, **k))
        for f in t.freqs_mhz:
            for request in (f, float(f), np.float64(f)):
                out = t.snap(request)
                assert type(out) is float and out.hex() == float(f).hex()
        assert calls == []

    def test_an_int_request_on_a_bin_is_that_bin(self, name):
        t = _boundary_tables()[name]
        for f in t.freqs_mhz:
            if float(f).is_integer():
                assert t.snap(int(f)) == f

    def test_off_table_requests_still_take_the_nearest_bin(self, name):
        t = _boundary_tables()[name]
        step = t.step_mhz()
        for f in t.freqs_mhz:
            for off in (0.3 * step, -0.3 * step, 1e-7):
                request = f + off
                if t.min_mhz - step / 2 < request < t.max_mhz + step / 2:
                    assert t.snap(request) == _argmin_snap(t, request)

    def test_invalid_requests_are_rejected_as_before(self, name):
        t = _boundary_tables()[name]
        for bad in (float("nan"), float("inf"), -float("inf"), 0.0, -0.0, -t.min_mhz):
            with pytest.raises(FrequencyError):
                t.snap(bad)
        with pytest.raises(FrequencyError, match="outside supported range"):
            t.snap(t.max_mhz + t.step_mhz() + 1.0)
