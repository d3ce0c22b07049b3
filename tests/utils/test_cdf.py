"""Tests for the empirical CDF container."""

import pytest

from repro.exceptions import ConfigurationError
from repro.utils.cdf import EmpiricalCDF


class TestConstruction:
    def test_from_samples_sorts(self):
        cdf = EmpiricalCDF.from_samples([3.0, 1.0, 2.0])
        assert cdf.samples == (1.0, 2.0, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            EmpiricalCDF.from_samples([])

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            EmpiricalCDF.from_samples([1.0, float("nan")])


class TestEvaluation:
    def test_cdf_at_minimum(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0, 3.0, 4.0])
        assert cdf.evaluate(1.0) == pytest.approx(0.25)

    def test_cdf_at_maximum_is_one(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0, 3.0])
        assert cdf.evaluate(3.0) == pytest.approx(1.0)

    def test_cdf_below_minimum_is_zero(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0])
        assert cdf.evaluate(0.5) == 0.0

    def test_cdf_is_monotone(self):
        cdf = EmpiricalCDF.from_samples([5.0, 1.0, 3.0, 3.0, 8.0])
        points = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
        values = [cdf.evaluate(p) for p in points]
        assert values == sorted(values)

    def test_quantile_median(self):
        cdf = EmpiricalCDF.from_samples([10.0, 20.0, 30.0, 40.0])
        assert cdf.median == pytest.approx(20.0)

    def test_quantile_bounds(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0, 3.0])
        assert cdf.quantile(1.0) == 3.0
        with pytest.raises(ConfigurationError):
            cdf.quantile(0.0)
        with pytest.raises(ConfigurationError):
            cdf.quantile(1.5)

    def test_mean_min_max(self):
        cdf = EmpiricalCDF.from_samples([2.0, 4.0, 6.0])
        assert cdf.mean == pytest.approx(4.0)
        assert cdf.maximum == 6.0

    def test_table(self):
        cdf = EmpiricalCDF.from_samples([1.0, 2.0])
        table = cdf.table([0.0, 1.5, 2.5])
        assert table == [(0.0, 0.0), (1.5, 0.5), (2.5, 1.0)]

    def test_len(self):
        assert len(EmpiricalCDF.from_samples([1.0, 1.0, 1.0])) == 3


class TestEmptyCDF:
    """A directly constructed CDF with no samples refuses to evaluate."""

    def test_evaluate_rejected(self):
        with pytest.raises(ConfigurationError, match="empty CDF"):
            EmpiricalCDF().evaluate(0.0)
