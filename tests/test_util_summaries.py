"""Unit tests for statistical summaries."""

import random

import pytest

from repro.util.summaries import (
    arithmetic_mean,
    geometric_mean,
    quantile,
    relative_difference,
    weighted_mean,
)


class TestArithmeticMean:
    def test_basic(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            arithmetic_mean([])


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_scale_invariance(self):
        values = [0.5, 1.5, 2.5]
        assert geometric_mean([2 * v for v in values]) == pytest.approx(
            2 * geometric_mean(values)
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            geometric_mean([])


class TestWeightedMean:
    def test_basic(self):
        assert weighted_mean([1.0, 3.0], [1.0, 3.0]) == pytest.approx(2.5)

    def test_uniform_weights_match_mean(self):
        values = [2.0, 4.0, 9.0]
        assert weighted_mean(values, [1, 1, 1]) == pytest.approx(
            arithmetic_mean(values)
        )

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            weighted_mean([1.0], [1.0, 2.0])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_mean([1.0, 2.0], [0.0, 0.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_mean([1.0], [-1.0])


class TestRelativeDifference:
    def test_sign_convention(self):
        assert relative_difference(1.1, 1.0) == pytest.approx(0.1)
        assert relative_difference(0.9, 1.0) == pytest.approx(-0.1)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_difference(1.0, 0.0)


class TestQuantileIsNumpyLinear:
    """``quantile`` is numpy's default ``linear`` method, float for float."""

    def test_upper_half_interpolates_from_the_upper_neighbour(self):
        # 0.13 + 8.5 * 0.6 rounds to 5.2299999999999995; numpy (and so
        # this) computes 8.63 - 8.5 * 0.4 once the fraction is >= 0.5.
        assert quantile([8.63, 0.13], 0.6) == 5.23
        assert quantile([8.63, 0.13], 0.4) == 0.13 + (8.63 - 0.13) * 0.4

    def test_equals_numpy_quantile(self):
        numpy = pytest.importorskip("numpy")
        rng = random.Random(23)
        for n in range(1, 41):
            for trial in range(30):
                if trial % 3 == 0:  # ties
                    values = [float(rng.randint(-3, 3)) for _ in range(n)]
                else:
                    values = [rng.uniform(-1e3, 1e3) for _ in range(n)]
                for q in (0.0, 0.1, 0.5, 0.9, 1.0, rng.random()):
                    expected = float(numpy.quantile(numpy.asarray(values), q))
                    assert quantile(values, q) == expected, (values, q)
