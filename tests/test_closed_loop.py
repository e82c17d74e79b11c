"""Closed-loop cross-validation: the keystone correctness contract.

With the wakeup latency forced to 0, a closed-loop run must be
observationally identical to a sleep-oblivious run (same cycles, same
idle intervals) and its runtime energy-state tallies must price
float-for-float identically to the open-loop histogram/sequence
evaluation of those intervals — asserted here with ``==``, no
tolerance, across the full nine-benchmark suite. With a nonzero
latency, aggressive policies must show real IPC slowdown, and the
simulations must flow through the exec cache under policy-aware keys.
"""

import pytest

from repro.core.accounting import EnergyAccountant
from repro.core.sleep_control import build_policy
from repro.cpu.config import MachineConfig
from repro.cpu.simulator import simulate_workload
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.workloads import benchmark_names, get_benchmark
from repro.exec.engine import BatchReport, clear_memo, run_jobs
from repro.exec.jobs import SimulationJob

WINDOW = 3_000
WARMUP = 1_500
P = 0.5
ALPHA = 0.5


def reference_config(name):
    return MachineConfig().with_int_fus(get_benchmark(name).reference_fus)


def open_loop_run(name):
    return simulate_workload(
        get_benchmark(name),
        WINDOW,
        config=reference_config(name),
        warmup_instructions=WARMUP,
    )


def closed_loop_run(name, policy, wakeup_latency, record_sequences=True):
    spec = SleepRuntimeSpec(
        policy=policy,
        leakage_factor_p=P,
        alpha=ALPHA,
        wakeup_latency=wakeup_latency,
    )
    return simulate_workload(
        get_benchmark(name),
        WINDOW,
        config=reference_config(name),
        warmup_instructions=WARMUP,
        sleep=spec,
        record_sequences=record_sequences,
    )


def assert_prices_like_open_loop(open_run, closed_run, policy_name):
    """Closed-loop tallies == open-loop evaluation, float for float."""
    spec = closed_run.sleep
    accountant = EnergyAccountant(spec.technology(), spec.alpha)
    for u_open, u_closed in zip(
        open_run.stats.fu_usage, closed_run.stats.fu_usage
    ):
        assert u_open.idle_histogram.counts == u_closed.idle_histogram.counts
        assert u_open.idle_intervals == u_closed.idle_intervals
        policy = build_policy(policy_name, spec.technology(), spec.alpha)
        if policy.stateless:
            reference = accountant.evaluate_histogram(
                policy, u_open.busy_cycles, u_open.idle_histogram
            )
        else:
            reference = accountant.evaluate_sequence(
                policy, u_open.busy_cycles, u_open.idle_intervals
            )
        runtime = accountant.evaluate_runtime(policy.name, u_closed.sleep_tally)
        assert runtime.counts == reference.counts
        assert runtime.breakdown == reference.breakdown
        assert runtime.total_energy == reference.total_energy
        assert runtime.baseline_energy == reference.baseline_energy
        assert runtime.normalized_energy == reference.normalized_energy


class TestZeroLatencyEquivalence:
    """Acceptance: all nine benchmarks, exact equality."""

    @pytest.mark.parametrize("name", benchmark_names())
    @pytest.mark.parametrize("policy", ["MaxSleep", "GradualSleep"])
    def test_stateless_policies_match_open_loop(self, name, policy):
        open_run = open_loop_run(name)
        closed_run = closed_loop_run(name, policy, wakeup_latency=0)
        assert closed_run.stats.total_cycles == open_run.stats.total_cycles
        assert (
            closed_run.stats.committed_instructions
            == open_run.stats.committed_instructions
        )
        assert closed_run.stats.wakeup_stall_cycles == 0
        closed_run.stats.validate()
        assert_prices_like_open_loop(open_run, closed_run, policy)

    @pytest.mark.parametrize("name", ["gzip", "mcf"])
    @pytest.mark.parametrize("policy", ["TimeoutSleep", "PredictiveSleep"])
    def test_stateful_and_timeout_policies_match_open_loop(self, name, policy):
        open_run = open_loop_run(name)
        closed_run = closed_loop_run(name, policy, wakeup_latency=0)
        assert closed_run.stats.total_cycles == open_run.stats.total_cycles
        assert_prices_like_open_loop(open_run, closed_run, policy)

    def test_wakeup_free_policies_match_even_with_latency(self):
        """The oracle pre-wakes: latency must not perturb timing at all."""
        open_run = open_loop_run("gzip")
        closed_run = closed_loop_run("gzip", "BreakevenOracle", wakeup_latency=10)
        assert closed_run.stats.total_cycles == open_run.stats.total_cycles
        assert closed_run.stats.wakeup_stall_cycles == 0
        assert_prices_like_open_loop(open_run, closed_run, "BreakevenOracle")


class TestNonzeroLatencySlowdown:
    """Acceptance: an aggressive policy pays real IPC with latency on."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_max_sleep_slows_down_everywhere(self, name):
        open_run = open_loop_run(name)
        closed_run = closed_loop_run(name, "MaxSleep", wakeup_latency=8)
        closed_run.stats.validate()
        assert closed_run.stats.total_cycles > open_run.stats.total_cycles
        assert closed_run.ipc < open_run.ipc
        assert closed_run.stats.wakeup_stall_cycles > 0

    def test_always_active_is_timing_neutral(self):
        """A policy that never sleeps cannot slow anything down."""
        open_run = open_loop_run("gzip")
        closed_run = closed_loop_run("gzip", "AlwaysActive", wakeup_latency=8)
        assert closed_run.stats.total_cycles == open_run.stats.total_cycles
        assert closed_run.stats.wakeup_stall_cycles == 0

    def test_latency_monotonically_hurts_max_sleep(self):
        cycles = [
            closed_loop_run("gzip", "MaxSleep", wakeup_latency=w).stats.total_cycles
            for w in (0, 2, 8)
        ]
        assert cycles[0] < cycles[1] <= cycles[2]

    def test_wakeup_stalls_bounded_by_extra_cycles_source(self):
        """Stall attribution sanity: stalls only exist with latency on."""
        closed0 = closed_loop_run("vortex", "MaxSleep", wakeup_latency=0)
        closed8 = closed_loop_run("vortex", "MaxSleep", wakeup_latency=8)
        assert closed0.stats.wakeup_stall_cycles == 0
        assert closed8.stats.wakeup_stall_cycles > 0
        total_waking = sum(
            usage.sleep_tally.waking + usage.sleep_tally.awake_wait
            for usage in closed8.stats.fu_usage
        )
        assert total_waking > 0


class TestClosedLoopCaching:
    """Acceptance: closed-loop runs flow through the exec cache with
    policy-aware keys and no cross-contamination."""

    def job(self, policy=None, wakeup_latency=4):
        sleep = (
            None
            if policy is None
            else SleepRuntimeSpec(
                policy=policy,
                leakage_factor_p=P,
                alpha=ALPHA,
                wakeup_latency=wakeup_latency,
            )
        )
        return SimulationJob(
            profile=get_benchmark("gcc"),
            num_instructions=2_000,
            warmup_instructions=500,
            config=reference_config("gcc"),
            sleep=sleep,
            record_sequences=False,
        )

    def test_keys_are_policy_aware(self):
        keys = {
            self.job().cache_key(),
            self.job("MaxSleep").cache_key(),
            self.job("GradualSleep").cache_key(),
            self.job("MaxSleep", wakeup_latency=2).cache_key(),
        }
        assert len(keys) == 4

    def test_record_sequences_is_part_of_the_key(self):
        base = self.job("MaxSleep")
        with_seq = SimulationJob(
            profile=base.profile,
            num_instructions=base.num_instructions,
            warmup_instructions=base.warmup_instructions,
            config=base.config,
            sleep=base.sleep,
            record_sequences=True,
        )
        assert base.cache_key() != with_seq.cache_key()

    def test_warm_rerun_hits_cache_and_is_identical(self):
        job = self.job("MaxSleep")
        cold = BatchReport()
        first = run_jobs([job], report=cold)[0]
        assert cold.executed == 1
        # Drop the in-process memo so the rerun exercises the disk layer.
        clear_memo()
        warm = BatchReport()
        second = run_jobs([job], report=warm)[0]
        assert warm.cache_hits == 1 and warm.executed == 0
        assert second.stats.total_cycles == first.stats.total_cycles
        assert second.stats.wakeup_stall_cycles == first.stats.wakeup_stall_cycles
        for u1, u2 in zip(first.stats.fu_usage, second.stats.fu_usage):
            assert u1.idle_histogram.counts == u2.idle_histogram.counts
            assert u1.sleep_tally == u2.sleep_tally

    def test_no_contamination_between_open_and_closed(self):
        """A cached closed-loop result must never satisfy an open-loop
        request for the same (profile, window, config) — and vice versa."""
        closed_job = self.job("MaxSleep")
        open_job = self.job(None)
        run_jobs([closed_job])
        clear_memo()
        report = BatchReport()
        open_result = run_jobs([open_job], report=report)[0]
        assert report.executed == 1  # not served from the closed entry
        assert open_result.sleep is None
        assert all(
            usage.sleep_tally is None for usage in open_result.stats.fu_usage
        )
