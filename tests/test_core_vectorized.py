"""Exact-equality suite: vectorized accounting vs the scalar loop.

The vectorized engine's contract is bit-for-bit agreement with the scalar
per-(length, count) accumulation — every assertion here uses ``==`` with
no tolerance. The suite covers synthetic histograms for all six stateless
policies, the base-class fallback, the memoization layer, and (the
acceptance bar) every policy on the full nine-benchmark Figure 8/9 suite.
"""

import random

import pytest

from repro.core.accounting import EnergyAccountant
from repro.core.gradual import GradualSleepDesign
from repro.core.parameters import TechnologyParameters
from repro.core.policies import (
    AlwaysActivePolicy,
    BreakevenOraclePolicy,
    GradualSleepPolicy,
    IntervalOutcome,
    MaxSleepPolicy,
    NoOverheadPolicy,
    PredictiveSleepPolicy,
    SleepPolicy,
    TimeoutSleepPolicy,
)
from repro.core.vectorized import HistogramBatch, exact_weighted_sum
from repro.cpu.workloads import benchmark_names
from repro.experiments.common import QUICK_SCALE, collect_benchmark_data
from repro.util.intervals import IntervalHistogram


def stateless_suite(params, alpha):
    """All six stateless policies at one technology/alpha point."""
    return [
        AlwaysActivePolicy(),
        MaxSleepPolicy(),
        NoOverheadPolicy(),
        GradualSleepPolicy.for_technology(params, alpha),
        GradualSleepPolicy(GradualSleepDesign(num_slices=7)),
        BreakevenOraclePolicy(params, alpha),
        TimeoutSleepPolicy(timeout=9),
    ]


def assert_results_identical(scalar, vector):
    """Every derived float must match bit for bit (== , no approx)."""
    assert vector.policy_name == scalar.policy_name
    assert vector.counts.active == scalar.counts.active
    assert vector.counts.uncontrolled_idle == scalar.counts.uncontrolled_idle
    assert vector.counts.sleep == scalar.counts.sleep
    assert vector.counts.transitions == scalar.counts.transitions
    for field in (
        "dynamic",
        "active_leakage",
        "uncontrolled_idle_leakage",
        "sleep_leakage",
        "transition_dynamic",
        "transition_overhead",
    ):
        assert getattr(vector.breakdown, field) == getattr(scalar.breakdown, field)
    assert vector.total_energy == scalar.total_energy
    assert vector.total_cycles == scalar.total_cycles
    assert vector.baseline_energy == scalar.baseline_energy
    assert vector.normalized_energy == scalar.normalized_energy
    assert vector.leakage_fraction == scalar.leakage_fraction


@pytest.fixture
def histogram():
    rng = random.Random(11)
    hist = IntervalHistogram()
    for _ in range(400):
        hist.add(rng.randint(1, 1_999), count=rng.randint(1, 59))
    return hist


class TestExactWeightedSum:
    def test_matches_left_to_right_accumulation(self):
        rng = random.Random(5)
        values = [rng.random() * rng.choice([1e-6, 1.0, 1e6]) for _ in range(997)]
        counts = [float(rng.randint(1, 99)) for _ in range(997)]
        accumulator = 0.0
        for value, count in zip(values, counts):
            accumulator += value * count
        assert exact_weighted_sum(values, counts) == accumulator

    def test_is_not_a_compensated_sum(self):
        """Builtin ``sum`` compensates float sums on CPython >= 3.12 and
        ``math.fsum`` rounds exactly; the scalar loop does neither."""
        values = [1.0, 1e100, 1.0, -1e100]
        counts = [1.0] * 4
        assert exact_weighted_sum(values, counts) == 0.0

    def test_empty_is_zero(self):
        assert exact_weighted_sum([], []) == 0.0


class TestOutcomesForLengths:
    """Per-element closed forms equal on_interval, float for float."""

    @pytest.mark.parametrize("make_policy", [
        AlwaysActivePolicy,
        MaxSleepPolicy,
        NoOverheadPolicy,
        lambda: GradualSleepPolicy(GradualSleepDesign(num_slices=1)),
        lambda: GradualSleepPolicy(GradualSleepDesign(num_slices=8)),
        lambda: GradualSleepPolicy(GradualSleepDesign(num_slices=13)),
        lambda: BreakevenOraclePolicy(
            TechnologyParameters(leakage_factor_p=0.5), 0.5
        ),
        lambda: TimeoutSleepPolicy(timeout=0),
        lambda: TimeoutSleepPolicy(timeout=7),
    ])
    def test_closed_form_matches_scalar(self, make_policy):
        policy = make_policy()
        lengths = [float(length) for length in range(1, 300)]
        uncontrolled, sleep, transitions = policy.outcomes_for_lengths(lengths)
        assert len(uncontrolled) == len(sleep) == len(transitions) == len(lengths)
        for i, length in enumerate(lengths):
            outcome = policy.on_interval(int(length))
            assert uncontrolled[i] == outcome.uncontrolled_idle
            assert sleep[i] == outcome.sleep
            assert transitions[i] == outcome.transitions

    def test_base_fallback_walks_on_interval(self):
        class EveryOther(SleepPolicy):
            """A stateless policy with no closed form."""

            name = "EveryOther"

            def on_interval(self, interval):
                self._check_interval(interval)
                if interval % 2:
                    return IntervalOutcome(float(interval), 0.0, 0.0)
                return IntervalOutcome(0.0, float(interval), 1.0)

        policy = EveryOther()
        lengths = [float(length) for length in range(1, 50)]
        uncontrolled, sleep, transitions = policy.outcomes_for_lengths(lengths)
        assert uncontrolled[0] == 1.0 and sleep[1] == 2.0 and transitions[1] == 1.0
        assert policy.outcome_key() is None

    def test_stateful_policy_rejected(self):
        params = TechnologyParameters(leakage_factor_p=0.5)
        with pytest.raises(ValueError):
            PredictiveSleepPolicy(params, 0.5).outcomes_for_lengths([1.0, 2.0])


class TestHistogramBatch:
    def test_arrays_sorted_ascending(self, histogram):
        batch = HistogramBatch(histogram)
        assert len(batch) == len(histogram)
        assert batch.lengths == sorted(batch.lengths)
        assert all(type(value) is float for value in batch.lengths + batch.counts)
        assert batch.total_idle_cycles == histogram.total_idle_cycles

    def test_wrap_is_idempotent(self, histogram):
        batch = HistogramBatch(histogram)
        assert HistogramBatch.wrap(batch) is batch
        assert isinstance(HistogramBatch.wrap(histogram), HistogramBatch)

    def test_outcome_totals_memoized_by_key(self, histogram, monkeypatch):
        batch = HistogramBatch(histogram)
        calls = {"n": 0}
        original = MaxSleepPolicy.outcomes_for_lengths

        def counting(self, lengths):
            calls["n"] += 1
            return original(self, lengths)

        monkeypatch.setattr(MaxSleepPolicy, "outcomes_for_lengths", counting)
        first = batch.outcome_totals(MaxSleepPolicy())
        second = batch.outcome_totals(MaxSleepPolicy())  # distinct instance
        assert calls["n"] == 1
        assert first == second

    def test_distinct_keys_not_conflated(self, histogram):
        batch = HistogramBatch(histogram)
        totals_small = batch.outcome_totals(
            GradualSleepPolicy(GradualSleepDesign(num_slices=2))
        )
        totals_large = batch.outcome_totals(
            GradualSleepPolicy(GradualSleepDesign(num_slices=64))
        )
        assert totals_small != totals_large


class TestScalarVectorEquality:
    @pytest.mark.parametrize("p", [0.05, 0.5])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_synthetic_histogram(self, histogram, p, alpha):
        params = TechnologyParameters(leakage_factor_p=p)
        accountant = EnergyAccountant(params, alpha)
        batch = HistogramBatch(histogram)
        for policy in stateless_suite(params, alpha):
            scalar = accountant.evaluate_histogram(policy, 1234.0, histogram)
            vector = accountant.evaluate_histogram(policy, 1234.0, batch)
            assert_results_identical(scalar, vector)

    def test_vectorized_flag_on_plain_histogram(self, histogram):
        params = TechnologyParameters(leakage_factor_p=0.5)
        accountant = EnergyAccountant(params, 0.5)
        scalar = accountant.evaluate_histogram(MaxSleepPolicy(), 10.0, histogram)
        vector = accountant.evaluate_histogram(
            MaxSleepPolicy(), 10.0, histogram, vectorized=True
        )
        assert_results_identical(scalar, vector)

    def test_single_length_histogram(self):
        hist = IntervalHistogram()
        hist.add(17, count=3)
        params = TechnologyParameters(leakage_factor_p=0.05)
        accountant = EnergyAccountant(params, 0.25)
        for policy in stateless_suite(params, 0.25):
            assert_results_identical(
                accountant.evaluate_histogram(policy, 5.0, hist),
                accountant.evaluate_histogram(policy, 5.0, hist, vectorized=True),
            )


class TestFullSuiteEquality:
    """The acceptance bar: float-for-float equality for every policy on
    the full nine-benchmark Figure 8/9 suite."""

    @pytest.fixture(scope="class")
    def suite_data(self):
        return collect_benchmark_data(scale=QUICK_SCALE)

    def test_covers_all_nine_benchmarks(self, suite_data):
        assert sorted(b.name for b in suite_data) == sorted(benchmark_names())
        assert len(suite_data) == 9

    @pytest.mark.parametrize("p", [0.05, 0.5])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
    def test_every_policy_every_fu(self, suite_data, p, alpha):
        params = TechnologyParameters(leakage_factor_p=p)
        accountant = EnergyAccountant(params, alpha)
        for bench in suite_data:
            batches = bench.per_fu_batches()
            for usage, batch in zip(bench.result.stats.fu_usage, batches):
                for policy in stateless_suite(params, alpha):
                    scalar = accountant.evaluate_histogram(
                        policy, usage.busy_cycles, usage.idle_histogram
                    )
                    vector = accountant.evaluate_histogram(
                        policy, usage.busy_cycles, batch
                    )
                    assert_results_identical(scalar, vector)

    @pytest.mark.parametrize("p", [0.05, 0.5])
    def test_benchmark_level_merge_identical(self, suite_data, p):
        """The per-benchmark merged breakdowns (Figure 8/9's inputs) are
        identical whichever engine produced them."""
        params = TechnologyParameters(leakage_factor_p=p)
        for bench in suite_data:
            policies = stateless_suite(params, 0.5)
            scalar = bench.evaluate_policy_breakdowns(
                params, 0.5, policies, vectorized=False
            )
            vector = bench.evaluate_policy_breakdowns(
                params, 0.5, policies, vectorized=True
            )
            assert scalar.keys() == vector.keys()
            for name in scalar:
                assert_results_identical(scalar[name], vector[name])
