"""Closed-loop performance impact: energy savings vs wakeup slowdown.

The paper's open-loop study (Figures 8-9) prices policies on idle
histograms recorded by a sleep-oblivious pipeline, so the performance
half of the energy/performance trade-off is assumed. This experiment
simulates it: each (benchmark x policy x technology x wakeup latency)
cell re-runs the pipeline with the policy *inside* the acquire path
(:mod:`repro.cpu.sleep`), where a sleeping unit stalls issue until it
pays the wakeup latency. The result is an empirical
energy-savings-vs-slowdown curve per (benchmark x policy x technology):
energy from the closed-loop runtime tallies, slowdown from the cycle
count against the sleep-oblivious baseline of the same workload.

All simulations flow through the execution engine as one deduplicated
batch, with policy-aware cache keys (the sleep spec is part of the key),
so re-rendering against warm caches does no simulation at all.

Exposed as the ``repro perf`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.accounting import EnergyAccountant, PolicyResult
from repro.core.parameters import TechnologyParameters
from repro.core.policies import AlwaysActivePolicy
from repro.cpu.config import MachineConfig
from repro.cpu.simulator import SimulationResult
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.workloads import benchmark_names, get_benchmark
from repro.exec.engine import run_jobs
from repro.exec.jobs import SimulationJob
from repro.experiments.common import (
    DEFAULT_SCALE,
    BenchmarkEnergyData,
    ExperimentScale,
    merge_policy_results,
)
from repro.util.summaries import arithmetic_mean
from repro.util.tables import format_table

#: Default closed-loop suite: the realizable policies whose aggression
#: spans the trade-off (MaxSleep pays the most wakeups, GradualSleep is
#: the paper's proposal, TimeoutSleep the decay-style hedge).
DEFAULT_PERF_POLICIES: Tuple[str, ...] = ("MaxSleep", "GradualSleep", "TimeoutSleep")
DEFAULT_P_VALUES: Tuple[float, ...] = (0.5,)
DEFAULT_ALPHA = 0.5
DEFAULT_WAKEUP_LATENCIES: Tuple[int, ...] = (1, 4)


@dataclass(frozen=True)
class PerfPoint:
    """One closed-loop cell, with its sleep-oblivious baseline."""

    benchmark: str
    policy: str
    p: float
    alpha: float
    wakeup_latency: int
    baseline_cycles: int
    cycles: int
    baseline_ipc: float
    ipc: float
    wakeup_stall_cycles: int
    wake_events: int
    #: Closed-loop total relative energy (units of E_D), summed over FUs.
    total_energy: float
    #: AlwaysActive total energy on the sleep-oblivious baseline run —
    #: the same committed work, so savings compare like for like.
    always_active_energy: float
    #: Closed-loop energy normalized to the run's own E_max.
    normalized_energy: float

    @property
    def slowdown(self) -> float:
        """Fractional IPC slowdown vs the sleep-oblivious baseline."""
        return self.cycles / self.baseline_cycles - 1.0

    @property
    def energy_savings(self) -> float:
        """Fraction of AlwaysActive energy saved on the same work."""
        if self.always_active_energy == 0:
            return 0.0
        return 1.0 - self.total_energy / self.always_active_energy


@dataclass(frozen=True)
class PerfImpactResult:
    """The evaluated study, indexed by (benchmark, policy, p, latency)."""

    policies: Tuple[str, ...]
    p_values: Tuple[float, ...]
    alpha: float
    wakeup_latencies: Tuple[int, ...]
    benchmarks: Tuple[str, ...]
    points: Dict[Tuple[str, str, float, int], PerfPoint]

    def point(
        self, benchmark: str, policy: str, p: float, wakeup_latency: int
    ) -> PerfPoint:
        return self.points[(benchmark, policy, p, wakeup_latency)]

    def curve(
        self, benchmark: str, policy: str, p: float
    ) -> List[PerfPoint]:
        """The energy-vs-slowdown frontier of one (benchmark, policy,
        technology), one point per wakeup latency."""
        return [
            self.points[(benchmark, policy, p, latency)]
            for latency in self.wakeup_latencies
        ]

    def suite_mean_savings(self, policy: str, p: float, latency: int) -> float:
        return arithmetic_mean(
            [
                self.points[(name, policy, p, latency)].energy_savings
                for name in self.benchmarks
            ]
        )

    def suite_mean_slowdown(self, policy: str, p: float, latency: int) -> float:
        return arithmetic_mean(
            [
                self.points[(name, policy, p, latency)].slowdown
                for name in self.benchmarks
            ]
        )


def _reference_config(name: str) -> MachineConfig:
    profile = get_benchmark(name)
    return MachineConfig().with_int_fus(profile.reference_fus)


def perf_jobs(
    scale: ExperimentScale = DEFAULT_SCALE,
    policies: Sequence[str] = DEFAULT_PERF_POLICIES,
    p_values: Sequence[float] = DEFAULT_P_VALUES,
    alpha: float = DEFAULT_ALPHA,
    wakeup_latencies: Sequence[int] = DEFAULT_WAKEUP_LATENCIES,
    benchmarks: Optional[Sequence[str]] = None,
) -> List[SimulationJob]:
    """Every simulation the study needs: baselines plus closed-loop runs.

    Exposed separately so callers (and the runner's prewarm) can submit
    the whole batch through the execution engine at once.
    """
    for p in p_values:
        TechnologyParameters(leakage_factor_p=p)  # reject a bad p before simulating
    names = list(benchmarks) if benchmarks else benchmark_names()
    jobs: List[SimulationJob] = []
    for name in names:
        config = _reference_config(name)
        jobs.append(
            SimulationJob.from_scale(
                get_benchmark(name), scale, config, record_sequences=False
            )
        )
        for p in p_values:
            for policy in policies:
                for latency in wakeup_latencies:
                    spec = SleepRuntimeSpec(
                        policy=policy,
                        leakage_factor_p=p,
                        alpha=alpha,
                        wakeup_latency=latency,
                    )
                    jobs.append(
                        SimulationJob.from_scale(
                            get_benchmark(name),
                            scale,
                            config,
                            sleep=spec,
                            record_sequences=False,
                        )
                    )
    return jobs


def _merge_runtime(
    accountant: EnergyAccountant, result: SimulationResult, name: str
) -> PolicyResult:
    """Sum per-unit runtime-tally pricings across the run's FUs.

    The closed-loop counterpart of
    :meth:`~repro.experiments.common.BenchmarkEnergyData.evaluate_policy_breakdowns`,
    sharing its :func:`merge_policy_results` fold so both levels combine
    per-FU results identically.
    """
    merged: Optional[PolicyResult] = None
    for usage in result.stats.fu_usage:
        if usage.sleep_tally is None:
            raise ValueError(
                f"{result.workload_name}: simulation was not closed-loop"
            )
        priced = accountant.evaluate_runtime(name, usage.sleep_tally)
        merged = priced if merged is None else merge_policy_results(merged, priced)
    assert merged is not None
    return merged


def _always_active_reference(
    base: SimulationResult, params, alpha: float
) -> PolicyResult:
    """AlwaysActive priced on the sleep-oblivious baseline run, through
    the same per-FU breakdown path the open-loop experiments use."""
    data = BenchmarkEnergyData(
        name=base.workload_name,
        num_fus=base.stats.num_int_fus,
        result=base,
    )
    policy = AlwaysActivePolicy()
    return data.evaluate_policy_breakdowns(params, alpha, [policy])[policy.name]


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    policies: Sequence[str] = DEFAULT_PERF_POLICIES,
    p_values: Sequence[float] = DEFAULT_P_VALUES,
    alpha: float = DEFAULT_ALPHA,
    wakeup_latencies: Sequence[int] = DEFAULT_WAKEUP_LATENCIES,
    benchmarks: Optional[Sequence[str]] = None,
) -> PerfImpactResult:
    """Simulate (or reuse cached) baseline and closed-loop runs, then
    build the energy-savings-vs-slowdown points."""
    names = tuple(benchmarks) if benchmarks else tuple(benchmark_names())
    batch = perf_jobs(
        scale=scale,
        policies=policies,
        p_values=p_values,
        alpha=alpha,
        wakeup_latencies=wakeup_latencies,
        benchmarks=names,
    )
    results = run_jobs(batch)
    # run_jobs returns results in submission order; index by the job's
    # logical coordinates instead of re-hashing canonical cache keys.
    baselines: Dict[str, SimulationResult] = {}
    closed_runs: Dict[Tuple[str, str, float, int], SimulationResult] = {}
    for job, result in zip(batch, results):
        if job.sleep is None:
            baselines[job.profile.name] = result
        else:
            closed_runs[
                (
                    job.profile.name,
                    job.sleep.policy,
                    job.sleep.leakage_factor_p,
                    job.sleep.wakeup_latency,
                )
            ] = result

    points: Dict[Tuple[str, str, float, int], PerfPoint] = {}
    for name in names:
        base = baselines[name]
        for p in p_values:
            spec0 = SleepRuntimeSpec(policy="AlwaysActive", leakage_factor_p=p,
                                     alpha=alpha)
            accountant = EnergyAccountant(spec0.technology(), alpha)
            always = _always_active_reference(base, spec0.technology(), alpha)
            for policy in policies:
                for latency in wakeup_latencies:
                    closed = closed_runs[(name, policy, p, latency)]
                    merged = _merge_runtime(accountant, closed, policy)
                    points[(name, policy, p, latency)] = PerfPoint(
                        benchmark=name,
                        policy=policy,
                        p=p,
                        alpha=alpha,
                        wakeup_latency=latency,
                        baseline_cycles=base.stats.total_cycles,
                        cycles=closed.stats.total_cycles,
                        baseline_ipc=base.ipc,
                        ipc=closed.ipc,
                        wakeup_stall_cycles=closed.stats.wakeup_stall_cycles,
                        wake_events=sum(
                            usage.sleep_tally.wake_events
                            for usage in closed.stats.fu_usage
                        ),
                        total_energy=merged.total_energy,
                        always_active_energy=always.total_energy,
                        normalized_energy=merged.normalized_energy,
                    )
    return PerfImpactResult(
        policies=tuple(policies),
        p_values=tuple(p_values),
        alpha=alpha,
        wakeup_latencies=tuple(wakeup_latencies),
        benchmarks=names,
        points=points,
    )


def render(result: PerfImpactResult) -> str:
    """The suite frontier plus per-benchmark slowdown/savings tables."""
    parts = [
        "Closed-loop perf impact: {npol} policies x {np} technology x "
        "{nw} wakeup latencies over {nb} benchmarks (alpha={alpha:g})".format(
            npol=len(result.policies),
            np=len(result.p_values),
            nw=len(result.wakeup_latencies),
            nb=len(result.benchmarks),
            alpha=result.alpha,
        )
    ]
    frontier_rows = []
    for policy in result.policies:
        for p in result.p_values:
            for latency in result.wakeup_latencies:
                frontier_rows.append(
                    [
                        policy,
                        f"{p:g}",
                        latency,
                        round(100 * result.suite_mean_savings(policy, p, latency), 2),
                        round(100 * result.suite_mean_slowdown(policy, p, latency), 2),
                        round(
                            100
                            * max(
                                result.point(name, policy, p, latency).slowdown
                                for name in result.benchmarks
                            ),
                            2,
                        ),
                    ]
                )
    parts.append(
        format_table(
            ["policy", "p", "wakeup", "savings %", "slowdown %", "max slowdown %"],
            frontier_rows,
            title="Energy-savings-vs-slowdown frontier "
            "(suite means; savings vs AlwaysActive on the same work)",
        )
    )
    for p in result.p_values:
        for latency in result.wakeup_latencies:
            rows = []
            for name in result.benchmarks:
                row: List[object] = [name]
                for policy in result.policies:
                    point = result.point(name, policy, p, latency)
                    row.append(round(100 * point.energy_savings, 2))
                    row.append(round(100 * point.slowdown, 2))
                rows.append(row)
            headers = ["benchmark"]
            for policy in result.policies:
                headers.append(f"{policy} sav%")
                headers.append(f"{policy} slow%")
            parts.append(
                format_table(
                    headers,
                    rows,
                    title=f"p={p:g}, wakeup latency {latency} cycles",
                )
            )
    return "\n\n".join(parts)


def main() -> None:  # pragma: no cover - CLI convenience
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
