"""The robustness experiment: sampled scenarios through engine + evaluator."""

import pytest

from repro.experiments import robustness
from repro.experiments.common import ExperimentScale
from repro.scenarios import sample_scenarios
from repro.util.summaries import quantile

#: Tiny but legal scale: robustness correctness does not need steady state.
TINY_SCALE = ExperimentScale(window_instructions=1_500, warmup_instructions=500)


@pytest.fixture(scope="module")
def small_result():
    return robustness.run(scale=TINY_SCALE, count=12, seed=6)


class TestRun:
    def test_one_outcome_per_scenario_in_sample_order(self, small_result):
        scenarios = sample_scenarios(12, seed=6)
        assert [o.scenario_id for o in small_result.outcomes] == [
            s.scenario_id for s in scenarios
        ]
        assert small_result.families == tuple(
            dict.fromkeys(s.family for s in scenarios)
        )

    def test_result_carries_the_evaluated_scenarios(self, small_result):
        """Catalog writers serialize result.scenarios, so it must be the
        exact evaluated sample, outcome-aligned."""
        assert small_result.scenarios == tuple(sample_scenarios(12, seed=6))
        assert [s.scenario_id for s in small_result.scenarios] == [
            o.scenario_id for o in small_result.outcomes
        ]

    def test_savings_consistent_with_normalized_energy(self, small_result):
        for outcome in small_result.outcomes:
            always = outcome.normalized["AlwaysActive"]
            for name in small_result.policies:
                expected = 1.0 - outcome.normalized[name] / always
                assert outcome.savings[name] == expected

    def test_ranking_is_energy_sorted_permutation(self, small_result):
        for outcome in small_result.outcomes:
            assert sorted(outcome.ranking) == sorted(small_result.policies)
            energies = [outcome.normalized[name] for name in outcome.ranking]
            assert energies == sorted(energies)

    def test_deterministic_across_runs(self, small_result):
        again = robustness.run(scale=TINY_SCALE, count=12, seed=6)
        assert again.outcomes == small_result.outcomes

    def test_family_filter(self):
        result = robustness.run(
            scale=TINY_SCALE, count=4, seed=2, families=["ilp_rich"]
        )
        assert result.families == ("ilp_rich",)
        assert all(o.family == "ilp_rich" for o in result.outcomes)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            robustness.run(scale=TINY_SCALE, count=2, policies=["Nope"])

    def test_policy_typo_gets_suggestions(self):
        with pytest.raises(ValueError, match="did you mean MaxSleep"):
            robustness.run(scale=TINY_SCALE, count=2, policies=["MaxSlep"])

    def test_rejects_duplicate_policies(self):
        with pytest.raises(ValueError, match="duplicate"):
            robustness.run(
                scale=TINY_SCALE, count=2,
                policies=["MaxSleep", "MaxSleep"],
            )

    def test_rejects_empty_policy_list(self):
        with pytest.raises(ValueError, match="at least one policy"):
            robustness.run(scale=TINY_SCALE, count=2, policies=[])


class TestAggregates:
    def test_wins_sum_to_scenario_count(self, small_result):
        assert sum(
            small_result.wins(name) for name in small_result.policies
        ) == len(small_result.outcomes)

    def test_mean_rank_bounds(self, small_result):
        for name in small_result.policies:
            assert 1.0 <= small_result.mean_rank(name) <= len(
                small_result.policies
            )

    def test_modal_ranking_stability_bounds(self, small_result):
        for family in small_result.families:
            ranking, stability = small_result.modal_ranking(family)
            assert sorted(ranking) == sorted(small_result.policies)
            pool = small_result.family_outcomes(family)
            assert 1 / len(pool) <= stability <= 1.0

    def test_worst_case_is_the_minimum(self, small_result):
        for name in small_result.policies:
            worst = small_result.worst_case(name)
            assert worst.savings[name] == min(
                o.savings[name] for o in small_result.outcomes
            )

    def test_savings_values_split_by_family(self, small_result):
        name = small_result.policies[0]
        per_family = sum(
            len(small_result.savings_values(name, family))
            for family in small_result.families
        )
        assert per_family == len(small_result.savings_values(name))


class TestRender:
    def test_report_contains_every_table(self, small_result):
        text = robustness.render(small_result)
        assert "Policy robustness: 12 scenarios" in text
        assert "distribution over all scenarios" in text
        assert "Mean savings % per family" in text
        assert "Policy-ranking stability per family" in text
        assert "Wins (rank-1 scenarios)" in text
        assert "Worst-case scenario per policy" in text
        for name in small_result.policies:
            assert name in text
        for family in small_result.families:
            assert family in text

    def test_report_names_worst_scenarios_by_stable_id(self, small_result):
        text = robustness.render(small_result)
        worst = small_result.worst_case(small_result.policies[0])
        assert worst.scenario_id in text


class TestQuantile:
    def test_interpolates(self):
        assert quantile([0.0, 1.0], 0.5) == 0.5
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.25) == 1.75

    def test_endpoints_and_singleton(self):
        assert quantile([3.0, 1.0, 2.0], 0.0) == 1.0
        assert quantile([3.0, 1.0, 2.0], 1.0) == 3.0
        assert quantile([7.0], 0.9) == 7.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="empty"):
            quantile([], 0.5)
        with pytest.raises(ValueError, match="quantile"):
            quantile([1.0], 1.5)

    def test_accepts_numpy_arrays(self):
        numpy = pytest.importorskip("numpy")

        assert quantile(numpy.asarray([0.1, 0.2, 0.3]), 0.5) == 0.2
        with pytest.raises(ValueError, match="empty"):
            quantile(numpy.asarray([]), 0.5)
