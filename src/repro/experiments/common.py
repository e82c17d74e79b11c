"""Shared plumbing for the empirical experiments (Figures 7-9, Table 3).

The empirical experiments all consume the same simulation outputs: for
each benchmark, the per-functional-unit active-cycle counts and
idle-interval histograms at that benchmark's Table 3 FU count.
:func:`collect_benchmark_data` submits those simulations as one batch
through the execution engine (:mod:`repro.exec.engine`) — deduplicated,
cached persistently, and run on the configured backend (``--backend``,
``--jobs``); Figures 7, 8, and 9 then share them, exactly as the paper
derives all three from the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.accounting import EnergyAccountant, PolicyResult
from repro.core.parameters import TechnologyParameters
from repro.core.policies import SleepPolicy
from repro.core.vectorized import HistogramBatch
from repro.cpu.config import MachineConfig
from repro.cpu.simulator import SimulationResult
from repro.cpu.workloads import benchmark_names, get_benchmark
from repro.exec.engine import run_jobs
from repro.exec.jobs import SimulationJob
from repro.util.intervals import IntervalHistogram


#: The shortest measured window an experiment accepts.
MIN_WINDOW_INSTRUCTIONS = 1_000


@dataclass(frozen=True)
class ExperimentScale:
    """Simulation window sizing for the empirical experiments.

    The paper simulates 50M-150M instruction windows; CPython cannot, so
    experiments default to windows that reach the same steady state (all
    workload footprints are sized for it — see DESIGN.md).
    """

    window_instructions: int = 40_000
    warmup_instructions: int = 30_000
    seed: int = 1

    def __post_init__(self) -> None:
        if self.window_instructions < MIN_WINDOW_INSTRUCTIONS:
            raise ValueError(f"window must be >= {MIN_WINDOW_INSTRUCTIONS} instructions")
        if self.warmup_instructions < 0:
            raise ValueError("warmup must be >= 0")


DEFAULT_SCALE = ExperimentScale()
#: Reduced scale for smoke tests and pytest-benchmark runs.
QUICK_SCALE = ExperimentScale(window_instructions=6_000, warmup_instructions=4_000)


def merge_policy_results(
    previous: PolicyResult, result: PolicyResult
) -> PolicyResult:
    """Combine two per-unit :class:`PolicyResult`\\ s of the same policy.

    Counts, breakdowns, cycles, and baselines all sum component-wise, so
    the merged :attr:`PolicyResult.normalized_energy` is the per-FU
    recombination ``sum(E_i) / sum(E_max_i)``.
    """
    return PolicyResult(
        policy_name=result.policy_name,
        counts=previous.counts.plus(result.counts),
        breakdown=previous.breakdown.plus(result.breakdown),
        total_cycles=previous.total_cycles + result.total_cycles,
        baseline_energy=previous.baseline_energy + result.baseline_energy,
    )


@dataclass
class BenchmarkEnergyData:
    """One benchmark's simulation output, ready for energy accounting."""

    name: str
    num_fus: int
    result: SimulationResult
    #: Lazily-built array views of the per-FU idle histograms. Shared by
    #: every vectorized evaluation of this benchmark, so per-policy
    #: outcome totals are memoized across sweep-grid cells.
    _batches: Optional[List[HistogramBatch]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def total_cycles(self) -> int:
        return self.result.stats.total_cycles

    @property
    def ipc(self) -> float:
        return self.result.stats.ipc

    def per_fu_active_cycles(self) -> List[int]:
        return [usage.busy_cycles for usage in self.result.stats.fu_usage]

    def per_fu_histograms(self) -> List[IntervalHistogram]:
        return [usage.idle_histogram for usage in self.result.stats.fu_usage]

    def per_fu_batches(self) -> List[HistogramBatch]:
        """Array-backed histogram views, built once per benchmark."""
        if self._batches is None:
            self._batches = [
                HistogramBatch(usage.idle_histogram)
                for usage in self.result.stats.fu_usage
            ]
        return self._batches

    def evaluate_policies(
        self,
        params: TechnologyParameters,
        alpha: float,
        policies: Sequence[SleepPolicy],
        vectorized: bool = True,
    ) -> Dict[str, float]:
        """Total normalized energy (vs E_max) of each policy, summed over
        this benchmark's functional units.

        Each FU is controlled independently (as in the paper); the
        benchmark's energy is the summed per-FU energy normalized by the
        summed per-FU E_max baseline. Both use the accountant's
        denominator — each unit's own busy + idle cycles — which is also
        what :attr:`PolicyResult.normalized_energy` uses, so the
        per-benchmark normalization is exactly the recombination of the
        per-FU ones.
        """
        merged = self.evaluate_policy_breakdowns(
            params, alpha, policies, vectorized=vectorized
        )
        return {name: result.normalized_energy for name, result in merged.items()}

    def evaluate_policy_breakdowns(
        self,
        params: TechnologyParameters,
        alpha: float,
        policies: Sequence[SleepPolicy],
        vectorized: bool = True,
    ) -> Dict[str, PolicyResult]:
        """Per-policy :class:`PolicyResult` with breakdowns summed over FUs.

        Used by Figure 9b (which needs the leakage/total split) and the
        sweep engine. ``vectorized`` switches stateless policies to the
        array-backed histogram path, which is float-for-float identical
        to the scalar loop; stateful policies always replay the ordered
        interval sequence.
        """
        accountant = EnergyAccountant(params, alpha)
        merged: Dict[str, PolicyResult] = {}
        stats = self.result.stats
        batches = self.per_fu_batches() if vectorized else None
        for index, usage in enumerate(stats.fu_usage):
            results = accountant.evaluate_many(
                policies,
                active_cycles=usage.busy_cycles,
                histogram=(
                    batches[index] if batches is not None else usage.idle_histogram
                ),
                interval_sequence=usage.idle_intervals,
                vectorized=vectorized,
            )
            for name, result in results.items():
                if name not in merged:
                    merged[name] = result
                else:
                    merged[name] = merge_policy_results(merged[name], result)
        return merged


def benchmark_jobs(
    scale: ExperimentScale = DEFAULT_SCALE,
    l2_latency: Optional[int] = None,
    benchmarks: Optional[Iterable[str]] = None,
    fu_override: Optional[int] = None,
    record_sequences: bool = False,
) -> List[SimulationJob]:
    """The simulation batch behind :func:`collect_benchmark_data`.

    Exposed separately so the runner can enumerate and prewarm every
    experiment's jobs as one deduplicated batch. Ordered interval
    sequences default to off: every figure/table/sweep consumer prices
    stateless policies from histograms, and the sequence lists are the
    dominant memory cost of long simulations. Pass
    ``record_sequences=True`` where ordered streams are really needed
    (stateful-policy accounting, closed-loop cross-validation).
    """
    names = list(benchmarks) if benchmarks is not None else benchmark_names()
    base_config = MachineConfig()
    if l2_latency is not None:
        base_config = base_config.with_l2_latency(l2_latency)
    jobs = []
    for name in names:
        profile = get_benchmark(name)
        num_fus = fu_override if fu_override is not None else profile.reference_fus
        jobs.append(
            SimulationJob.from_scale(
                profile,
                scale,
                base_config.with_int_fus(num_fus),
                record_sequences=record_sequences,
            )
        )
    return jobs


def collect_benchmark_data(
    scale: ExperimentScale = DEFAULT_SCALE,
    l2_latency: Optional[int] = None,
    benchmarks: Optional[Iterable[str]] = None,
    fu_override: Optional[int] = None,
    record_sequences: bool = False,
) -> List[BenchmarkEnergyData]:
    """Simulate the suite at each benchmark's Table 3 FU count.

    ``l2_latency`` switches the L2 hit latency (Figure 7 uses 12 and 32);
    ``fu_override`` forces a fixed FU count (the FU-count ablation).
    The batch goes through the execution engine: results come from the
    in-process memo or the persistent cache when available, and pending
    simulations run on the process-wide backend.
    """
    batch = benchmark_jobs(
        scale=scale,
        l2_latency=l2_latency,
        benchmarks=benchmarks,
        fu_override=fu_override,
        record_sequences=record_sequences,
    )
    results = run_jobs(batch)
    return [
        BenchmarkEnergyData(
            name=job.profile.name, num_fus=job.config.num_int_fus, result=result
        )
        for job, result in zip(batch, results)
    ]
