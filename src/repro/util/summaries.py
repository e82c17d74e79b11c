"""Small statistical summaries used when aggregating benchmark results."""

from __future__ import annotations

import math
from typing import Sequence


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain average; raises on an empty sequence."""
    if not values:
        raise ValueError("cannot average an empty sequence")
    return sum(values) / len(values)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values.

    Used for cross-benchmark energy ratios, where ratios should compose
    multiplicatively.
    """
    if not values:
        raise ValueError("cannot average an empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def weighted_mean(values: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted average; weights must be non-negative and not all zero."""
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    if not values:
        raise ValueError("cannot average an empty sequence")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    total_weight = sum(weights)
    if total_weight == 0:
        raise ValueError("weights must not all be zero")
    return sum(v * w for v, w in zip(values, weights)) / total_weight


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values``, with the endpoints at the sample
    extremes.

    numpy's default ``linear`` method, float for float: the virtual
    index is ``(n - 1) * q``; at or past the last index the answer is
    the largest value; otherwise it interpolates between the two
    neighbours the way ``numpy.quantile``'s ``_lerp`` does, from the
    upper neighbour when the fraction is at least one half. Used for
    the robustness experiment's per-policy savings distributions.
    """
    if len(values) == 0:  # not `not values`: arrays are ambiguous there
        raise ValueError("cannot take a quantile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(float(value) for value in values)
    position = (len(ordered) - 1) * q
    if position >= len(ordered) - 1:
        return ordered[-1]
    below = math.floor(position)
    low, high = ordered[below], ordered[below + 1]
    fraction = position - below
    step = high - low
    if fraction >= 0.5:
        return high - step * (1 - fraction)
    return low + step * fraction


def relative_difference(value: float, reference: float) -> float:
    """``(value - reference) / reference``; the paper's "% more energy"."""
    if reference == 0:
        raise ValueError("reference must be non-zero")
    return (value - reference) / reference
