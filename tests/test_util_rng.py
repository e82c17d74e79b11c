"""Unit tests for deterministic RNG helpers."""

import pytest

from repro.util.rng import DeterministicRng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_path_is_not_concatenation(self):
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]

    def test_child_streams_are_independent(self):
        root = DeterministicRng(7)
        child_a = root.child("x")
        child_b = root.child("y")
        assert child_a.uniform() != child_b.uniform()

    def test_chance_bounds(self):
        rng = DeterministicRng(1)
        assert not any(rng.chance(0.0) for _ in range(50))
        assert all(rng.chance(1.0) for _ in range(50))
        with pytest.raises(ValueError):
            rng.chance(1.5)

    def test_geometric_mean_is_close(self):
        rng = DeterministicRng(3)
        samples = [rng.geometric(8.0) for _ in range(20000)]
        mean = sum(samples) / len(samples)
        assert 7.0 < mean < 9.0
        assert min(samples) >= 1

    def test_geometric_of_one_is_constant(self):
        rng = DeterministicRng(3)
        assert all(rng.geometric(1.0) == 1 for _ in range(20))

    def test_geometric_rejects_sub_one(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).geometric(0.5)

    def test_randint_inclusive(self):
        rng = DeterministicRng(5)
        values = {rng.randint(1, 3) for _ in range(200)}
        assert values == {1, 2, 3}

    def test_shuffled_is_permutation(self):
        rng = DeterministicRng(9)
        items = list(range(20))
        shuffled = rng.shuffled(items)
        assert sorted(shuffled) == items
        assert items == list(range(20))  # original untouched
