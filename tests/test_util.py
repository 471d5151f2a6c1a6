"""Unit tests for the shared helpers in :mod:`repro._util`."""

import pytest

from repro._util import (
    clamp,
    mean,
    normalize_distribution,
    normalize_weights,
    pearson,
    require_positive,
    require_unit_interval,
)
from repro.errors import ConfigurationError


class TestClamp:
    def test_inside_interval_unchanged(self):
        assert clamp(0.4) == 0.4

    def test_below_clamps_to_low(self):
        assert clamp(-1.0) == 0.0

    def test_above_clamps_to_high(self):
        assert clamp(3.0) == 1.0

    def test_custom_interval(self):
        assert clamp(5.0, 1.0, 2.0) == 2.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            clamp(0.5, 1.0, 0.0)


class TestRequireUnitInterval:
    def test_accepts_bounds(self):
        assert require_unit_interval(0.0, "x") == 0.0
        assert require_unit_interval(1.0, "x") == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ConfigurationError):
            require_unit_interval(1.5, "x")
        with pytest.raises(ConfigurationError):
            require_unit_interval(-0.1, "x")

    def test_rejects_non_numbers(self):
        with pytest.raises(ConfigurationError):
            require_unit_interval("0.5", "x")

    def test_rejects_booleans(self):
        with pytest.raises(ConfigurationError):
            require_unit_interval(True, "x")

    def test_error_message_names_parameter(self):
        with pytest.raises(ConfigurationError, match="sharing"):
            require_unit_interval(2.0, "sharing")


class TestRequirePositive:
    def test_strict_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            require_positive(0.0, "x")

    def test_non_strict_accepts_zero(self):
        assert require_positive(0.0, "x", strict=False) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            require_positive(-1.0, "x", strict=False)

    def test_returns_float(self):
        assert require_positive(3, "x") == 3.0


class TestNormalizeWeights:
    def test_normalizes_to_one(self):
        assert normalize_weights([1.0, 1.0, 2.0]) == [0.25, 0.25, 0.5]

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            normalize_weights([])

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            normalize_weights([1.0, -0.5])

    def test_rejects_all_zero(self):
        with pytest.raises(ConfigurationError):
            normalize_weights([0.0, 0.0])


class TestNormalizeDistribution:
    def test_normalizes(self):
        dist = normalize_distribution({"a": 1.0, "b": 3.0})
        assert dist["a"] == pytest.approx(0.25)
        assert dist["b"] == pytest.approx(0.75)

    def test_all_zero_becomes_uniform(self):
        dist = normalize_distribution({"a": 0.0, "b": 0.0})
        assert dist == {"a": 0.5, "b": 0.5}

    def test_empty_stays_empty(self):
        assert normalize_distribution({}) == {}

    def test_rejects_negative_scores(self):
        with pytest.raises(ConfigurationError):
            normalize_distribution({"a": -1.0})


class TestMean:
    def test_simple_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_uses_default(self):
        assert mean([], default=0.7) == 0.7

    def test_accepts_generators(self):
        assert mean(x / 10 for x in range(11)) == pytest.approx(0.5)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_short_series_is_zero(self):
        assert pearson([1], [2]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            pearson([1, 2], [1, 2, 3])
