"""Tests for the closed-loop energy-vs-slowdown experiment."""

import pytest

from repro.experiments import perf_impact
from repro.experiments.common import QUICK_SCALE


def small_run(**overrides):
    kwargs = dict(
        scale=QUICK_SCALE,
        policies=("MaxSleep", "GradualSleep"),
        p_values=(0.5,),
        alpha=0.5,
        wakeup_latencies=(0, 4),
        benchmarks=("gzip", "mcf"),
    )
    kwargs.update(overrides)
    return perf_impact.run(**kwargs)


class TestPerfImpact:
    def test_zero_latency_has_zero_slowdown(self):
        result = small_run()
        for name in result.benchmarks:
            for policy in result.policies:
                point = result.point(name, policy, 0.5, 0)
                assert point.slowdown == 0.0
                assert point.wakeup_stall_cycles == 0

    def test_latency_costs_performance_and_energy_headroom(self):
        result = small_run()
        for name in result.benchmarks:
            point = result.point(name, "MaxSleep", 0.5, 4)
            free = result.point(name, "MaxSleep", 0.5, 0)
            assert point.slowdown > 0.0
            assert point.wakeup_stall_cycles > 0
            # Wakeup thrash can only cost energy relative to free wakeups.
            assert point.energy_savings <= free.energy_savings

    def test_savings_positive_at_high_leakage(self):
        result = small_run()
        for name in result.benchmarks:
            for policy in result.policies:
                assert result.point(name, policy, 0.5, 4).energy_savings > 0.0

    def test_curve_spans_latencies(self):
        result = small_run()
        curve = result.curve("gzip", "MaxSleep", 0.5)
        assert [point.wakeup_latency for point in curve] == [0, 4]
        assert curve[0].baseline_cycles == curve[1].baseline_cycles

    def test_render_mentions_every_policy_and_benchmark(self):
        result = small_run()
        text = perf_impact.render(result)
        for policy in result.policies:
            assert policy in text
        for name in result.benchmarks:
            assert name in text
        assert "frontier" in text

    def test_perf_jobs_enumerates_baselines_and_closed_runs(self):
        jobs = perf_impact.perf_jobs(
            scale=QUICK_SCALE,
            policies=("MaxSleep",),
            p_values=(0.5,),
            alpha=0.5,
            wakeup_latencies=(0, 4),
            benchmarks=("gzip",),
        )
        # One sleep-oblivious baseline + one job per (policy, latency).
        assert len(jobs) == 3
        assert sum(1 for job in jobs if job.sleep is None) == 1
        assert all(not job.record_sequences for job in jobs)
        assert len({job.cache_key() for job in jobs}) == 3

    def test_perf_jobs_rejects_duplicate_p_values(self):
        """Regression: a repeated ``p`` rendered its frontier rows twice."""
        with pytest.raises(ValueError, match="duplicate p values"):
            perf_impact.perf_jobs(
                scale=QUICK_SCALE, policies=("MaxSleep",), p_values=(0.5, 0.5),
                wakeup_latencies=(1,), benchmarks=("gzip",),
            )

    def test_stateful_policy_supported_closed_loop(self):
        result = small_run(
            policies=("PredictiveSleep",), benchmarks=("gzip",),
            wakeup_latencies=(4,),
        )
        point = result.point("gzip", "PredictiveSleep", 0.5, 4)
        assert point.slowdown >= 0.0
        assert 0.0 < point.normalized_energy < 1.5
