"""Unit tests for static feature extraction."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.features import (
    STATIC_FEATURE_NAMES,
    application_spec,
    extract_normalized_features,
    feature_table_rows,
)
from repro.kernels.ir import FEATURE_NAMES, KernelLaunch, KernelSpec


class TestNormalizedFeatures:
    def test_length_and_names(self):
        spec = KernelSpec("k", float_add=10, global_access=10)
        vec = extract_normalized_features(spec)
        assert vec.shape == (len(STATIC_FEATURE_NAMES),)
        assert STATIC_FEATURE_NAMES[-1] == "log_ops_per_thread"

    def test_mix_sums_to_one(self):
        spec = KernelSpec("k", float_add=10, int_add=5, global_access=5)
        vec = extract_normalized_features(spec)
        assert vec[:-1].sum() == pytest.approx(1.0)

    def test_magnitude_feature_is_log10(self):
        spec = KernelSpec("k", float_add=100)
        assert extract_normalized_features(spec)[-1] == pytest.approx(2.0)

    def test_scale_invariance_of_mix(self):
        spec = KernelSpec("k", float_add=10, global_access=5)
        big = spec.scaled(7.0)
        a = extract_normalized_features(spec)
        b = extract_normalized_features(big)
        assert np.allclose(a[:-1], b[:-1])
        assert b[-1] > a[-1]


class TestApplicationAggregation:
    def test_weighted_by_work(self):
        heavy = KernelSpec("h", float_add=100)
        light = KernelSpec("l", global_access=100)
        launches = [
            KernelLaunch(heavy, threads=900),
            KernelLaunch(light, threads=100),
        ]
        agg = application_spec(launches)
        assert agg.float_add == pytest.approx(90.0)
        assert agg.global_access == pytest.approx(10.0)

    def test_app_features_shape(self):
        spec = KernelSpec("k", float_add=10)
        vec = extract_normalized_features(application_spec([KernelLaunch(spec, threads=10)]))
        assert vec.shape == (len(STATIC_FEATURE_NAMES),)

    def test_empty_rejected(self):
        with pytest.raises(KernelError):
            application_spec([])


def test_feature_table_rows():
    specs = [KernelSpec("a", float_add=1), KernelSpec("b", int_add=2)]
    rows = feature_table_rows(specs)
    assert len(rows) == 2
    assert rows[0]["kernel"] == "a"
    assert rows[1]["int_add"] == 2.0
    assert set(FEATURE_NAMES) <= set(rows[0])
