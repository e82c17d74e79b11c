"""Deterministic pseudo-random number helpers.

All stochastic behavior in the synthetic workloads flows through
:class:`DeterministicRng` so that every experiment is exactly reproducible
from a seed. The class wraps :class:`random.Random`, the standard
library's Mersenne Twister: the trace generators draw one value at a
time inside tight Python loops, and the compiled trace walker replays
its exact state words.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a child seed from a base seed and a label path.

    Stable across runs and Python versions (uses SHA-256, not ``hash()``).
    Used to give each benchmark/component an independent stream so that,
    e.g., changing the branch-bias draw count of one workload does not
    perturb another.
    """
    digest = hashlib.sha256()
    digest.update(str(base_seed).encode())
    for label in labels:
        digest.update(b"/")
        digest.update(str(label).encode())
    return int.from_bytes(digest.digest()[:8], "big")


class DeterministicRng:
    """A seeded RNG with the handful of draw shapes the generators need."""

    def __init__(self, seed: int):
        self.seed = seed
        self._random = random.Random(seed)

    def child(self, *labels: object) -> "DeterministicRng":
        """A new independent RNG derived from this seed and a label path."""
        return DeterministicRng(derive_seed(self.seed, *labels))

    def uniform(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        return self._random.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choice from ``items`` with the given relative weights."""
        return self._random.choices(items, weights=weights, k=1)[0]

    def geometric(self, mean: float) -> int:
        """Geometric draw (>= 1) with the given mean.

        Idle/dependency gap lengths in the synthetic traces are modeled as
        geometric because inter-arrival gaps of independent per-cycle events
        are geometric; the workload profiles then layer long-tail events
        (cache misses) on top.
        """
        if mean < 1.0:
            raise ValueError(f"geometric mean must be >= 1, got {mean}")
        if mean == 1.0:
            return 1
        success = 1.0 / mean
        # Inverse-CDF sampling keeps this a single uniform draw.
        value = 1
        while not self._random.random() < success:
            value += 1
            if value > 10_000_000:  # safety: cannot happen for sane means
                break
        return value

    def shuffled(self, items: Sequence[T]) -> List[T]:
        """A shuffled copy of ``items``."""
        copy = list(items)
        self._random.shuffle(copy)
        return copy

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal draw."""
        return self._random.gauss(mu, sigma)
