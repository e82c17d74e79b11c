"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures, quantifying decisions the paper
makes by argument:

* ``slice_count`` — GradualSleep granularity (the paper: fewer slices →
  MaxSleep-like, more → AlwaysActive-like; n_be is the sweet spot);
* ``duty_cycle`` — sensitivity of the model to the fixed D = 0.5;
* ``sleep_overhead`` — pessimistic (0.01) vs measured (0.0063) e_ovh;
* ``fu_count`` — the Table 3 FU-trimming methodology vs always-4-FUs
  (the paper: mcf's leakage fraction grows from ~15% to ~25% with idle
  extra units);
* ``predictive_policy`` — is a "more complex control strategy" (EWMA
  prediction, timeout hysteresis) warranted over GradualSleep?
* ``l2_latency`` — idle time and fraction-within-L2 vs the L2 latency,
  generalizing Figure 7's two points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.breakeven import breakeven_interval
from repro.core.gradual import GradualSleepDesign
from repro.core.parameters import TechnologyParameters
from repro.core.policies import (
    AlwaysActivePolicy,
    BreakevenOraclePolicy,
    GradualSleepPolicy,
    MaxSleepPolicy,
    PredictiveSleepPolicy,
    TimeoutSleepPolicy,
    paper_policy_suite,
)
from repro.core.policy_energy import UsageScenario, policy_energies
from repro.experiments.common import (
    DEFAULT_SCALE,
    BenchmarkEnergyData,
    ExperimentScale,
    collect_benchmark_data,
)
from repro.util.summaries import arithmetic_mean
from repro.util.tables import format_series, format_table

DEFAULT_ALPHA = 0.5

#: L2 hit latencies swept by :func:`l2_latency` (generalizing Figure 7).
ABLATION_L2_LATENCIES = (6, 12, 24, 32, 48)
#: The benchmark whose FU-trimming methodology :func:`fu_count` examines.
FU_COUNT_BENCHMARK = "mcf"


# -- slice count ---------------------------------------------------------------


@dataclass(frozen=True)
class SliceCountResult:
    """Suite-average GradualSleep energy (vs E_max) per slice count."""

    p: float
    breakeven_slices: int
    energies_by_slices: Dict[int, float]


def slice_count(
    scale: ExperimentScale = DEFAULT_SCALE,
    p: float = 0.50,
    alpha: float = DEFAULT_ALPHA,
    slice_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    benchmarks: Sequence[str] = (),
) -> SliceCountResult:
    """Sweep the GradualSleep slice count on the measured suite."""
    params = TechnologyParameters(leakage_factor_p=p)
    names = list(benchmarks) if benchmarks else None
    data = collect_benchmark_data(scale=scale, benchmarks=names)
    energies = {}
    for count in slice_counts:
        policy = GradualSleepPolicy(GradualSleepDesign(num_slices=count))
        values = [
            bench.evaluate_policies(params, alpha, [policy])[policy.name]
            for bench in data
        ]
        energies[count] = arithmetic_mean(values)
    n_be = max(1, round(breakeven_interval(params, alpha)))
    return SliceCountResult(
        p=p, breakeven_slices=n_be, energies_by_slices=energies
    )


# -- duty cycle ------------------------------------------------------------------


@dataclass(frozen=True)
class DutyCycleResult:
    """Closed-form policy energies vs the clock duty cycle."""

    duty_cycles: Tuple[float, ...]
    always_active: List[float]
    max_sleep: List[float]


def duty_cycle(
    p: float = 0.50,
    alpha: float = DEFAULT_ALPHA,
    duty_cycles: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    usage: float = 0.5,
    mean_idle: float = 10.0,
) -> DutyCycleResult:
    """Vary D in the closed-form model (the paper fixes D = 0.5)."""
    aa, ms = [], []
    for d in duty_cycles:
        params = TechnologyParameters(
            leakage_factor_p=p, duty_cycle=d
        )
        scenario = UsageScenario(
            total_cycles=1_000_000.0,
            usage_factor=usage,
            mean_idle_interval=mean_idle,
            alpha=alpha,
        )
        energies = policy_energies(params, scenario)
        aa.append(energies.always_active)
        ms.append(energies.max_sleep)
    return DutyCycleResult(
        duty_cycles=tuple(duty_cycles), always_active=aa, max_sleep=ms
    )


# -- sleep overhead ---------------------------------------------------------------


@dataclass(frozen=True)
class SleepOverheadResult:
    """Break-even and suite MaxSleep energy vs the e_ovh assumption."""

    overheads: Tuple[float, ...]
    breakeven_cycles: List[float]
    max_sleep_energy: List[float]


def sleep_overhead(
    scale: ExperimentScale = DEFAULT_SCALE,
    p: float = 0.05,
    alpha: float = DEFAULT_ALPHA,
    overheads: Sequence[float] = (0.0, 0.0063, 0.01, 0.05, 0.10),
    benchmarks: Sequence[str] = (),
) -> SleepOverheadResult:
    """Pessimistic vs measured sleep-assert overhead."""
    names = list(benchmarks) if benchmarks else None
    data = collect_benchmark_data(scale=scale, benchmarks=names)
    breakevens, energies = [], []
    for overhead in overheads:
        params = TechnologyParameters(
            leakage_factor_p=p, sleep_overhead=overhead
        )
        breakevens.append(breakeven_interval(params, alpha))
        policy = MaxSleepPolicy()
        values = [
            bench.evaluate_policies(params, alpha, [policy])[policy.name]
            for bench in data
        ]
        energies.append(arithmetic_mean(values))
    return SleepOverheadResult(
        overheads=tuple(overheads),
        breakeven_cycles=breakevens,
        max_sleep_energy=energies,
    )


# -- FU-count methodology -----------------------------------------------------------


@dataclass(frozen=True)
class FuCountResult:
    """Leakage fraction with trimmed vs maximal FU counts (AlwaysActive)."""

    p: float
    benchmark: str
    trimmed_fus: int
    leakage_fraction_trimmed: float
    leakage_fraction_four: float
    utilization_trimmed: float
    utilization_four: float


def fu_count(
    scale: ExperimentScale = DEFAULT_SCALE,
    p: float = 0.05,
    alpha: float = DEFAULT_ALPHA,
    benchmark: str = FU_COUNT_BENCHMARK,
) -> FuCountResult:
    """The paper's mcf example: extra idle FUs inflate the leakage share."""
    params = TechnologyParameters(leakage_factor_p=p)
    policy_suite = [AlwaysActivePolicy()]

    def leakage_for(data: BenchmarkEnergyData) -> Tuple[float, float]:
        results = data.evaluate_policy_breakdowns(params, alpha, policy_suite)
        result = results["AlwaysActive"]
        stats = data.result.stats
        utilization = 1.0 - stats.alu_idle_fraction()
        return result.breakdown.leakage_fraction, utilization

    trimmed = collect_benchmark_data(scale=scale, benchmarks=[benchmark])[0]
    four = collect_benchmark_data(
        scale=scale, benchmarks=[benchmark], fu_override=4
    )[0]
    leak_trimmed, util_trimmed = leakage_for(trimmed)
    leak_four, util_four = leakage_for(four)
    return FuCountResult(
        p=p,
        benchmark=benchmark,
        trimmed_fus=trimmed.num_fus,
        leakage_fraction_trimmed=leak_trimmed,
        leakage_fraction_four=leak_four,
        utilization_trimmed=util_trimmed,
        utilization_four=util_four,
    )


# -- predictive policies --------------------------------------------------------------


@dataclass(frozen=True)
class PredictivePolicyResult:
    """Suite-average normalized energies: simple vs complex controllers."""

    p: float
    energies: Dict[str, float]


def predictive_policy(
    scale: ExperimentScale = DEFAULT_SCALE,
    p: float = 0.50,
    alpha: float = DEFAULT_ALPHA,
    benchmarks: Sequence[str] = (),
) -> PredictivePolicyResult:
    """Test the paper's claim that complex control is not warranted."""
    params = TechnologyParameters(leakage_factor_p=p)
    names = list(benchmarks) if benchmarks else None
    # The EWMA predictor is stateful: it must replay each unit's ordered
    # interval stream, so this (and only this) ablation keeps sequences.
    data = collect_benchmark_data(
        scale=scale, benchmarks=names, record_sequences=True
    )
    n_be = max(1, round(breakeven_interval(params, alpha)))
    policies = paper_policy_suite(params, alpha) + [
        PredictiveSleepPolicy(params, alpha),
        TimeoutSleepPolicy(timeout=n_be),
        BreakevenOraclePolicy(params, alpha),
    ]
    totals: Dict[str, List[float]] = {}
    for bench in data:
        values = bench.evaluate_policies(params, alpha, policies)
        for name, value in values.items():
            totals.setdefault(name, []).append(value)
    return PredictivePolicyResult(
        p=p,
        energies={name: arithmetic_mean(vals) for name, vals in totals.items()},
    )


# -- L2 latency ------------------------------------------------------------------------


@dataclass(frozen=True)
class L2LatencyResult:
    """Idle statistics vs L2 hit latency (generalizing Figure 7)."""

    latencies: Tuple[int, ...]
    idle_fractions: List[float]
    fraction_within_latency: List[float]


def l2_latency(
    scale: ExperimentScale = DEFAULT_SCALE,
    latencies: Sequence[int] = ABLATION_L2_LATENCIES,
    benchmarks: Sequence[str] = (),
) -> L2LatencyResult:
    """Sweep the L2 hit latency across the suite."""
    from repro.experiments.figure7 import _distribution_for

    names = list(benchmarks) if benchmarks else None
    idle_fractions, within = [], []
    for latency in latencies:
        data = collect_benchmark_data(
            scale=scale, l2_latency=latency, benchmarks=names
        )
        dist = _distribution_for(data, latency)
        idle_fractions.append(dist.overall_idle_fraction)
        within.append(dist.intervals_within_l2_latency)
    return L2LatencyResult(
        latencies=tuple(latencies),
        idle_fractions=idle_fractions,
        fraction_within_latency=within,
    )


# -- rendering ---------------------------------------------------------------------------


def render_all(scale: ExperimentScale = DEFAULT_SCALE) -> str:
    """Run every ablation at the given scale and render a combined report."""
    parts = []

    sc = slice_count(scale=scale)
    parts.append(
        format_table(
            ["slices", "GradualSleep energy (vs E_max)"],
            [[n, round(e, 4)] for n, e in sorted(sc.energies_by_slices.items())],
            title=(
                f"Ablation: GradualSleep slice count (p={sc.p}, "
                f"break-even ~ {sc.breakeven_slices} slices)"
            ),
        )
    )

    dc = duty_cycle()
    parts.append(
        format_series(
            "duty D",
            list(dc.duty_cycles),
            [
                ("AlwaysActive", [round(v, 4) for v in dc.always_active]),
                ("MaxSleep", [round(v, 4) for v in dc.max_sleep]),
            ],
            title="Ablation: clock duty cycle (closed-form, p=0.5)",
        )
    )

    so = sleep_overhead(scale=scale)
    parts.append(
        format_series(
            "e_ovh",
            list(so.overheads),
            [
                ("break-even (cyc)", [round(v, 1) for v in so.breakeven_cycles]),
                ("MaxSleep energy", [round(v, 4) for v in so.max_sleep_energy]),
            ],
            title="Ablation: sleep-assert overhead (p=0.05)",
        )
    )

    fc = fu_count(scale=scale)
    parts.append(
        format_table(
            ["config", "utilization", "leakage fraction"],
            [
                [f"{fc.benchmark} ({fc.trimmed_fus} FUs)",
                 round(fc.utilization_trimmed, 3),
                 round(fc.leakage_fraction_trimmed, 3)],
                [f"{fc.benchmark} (4 FUs)",
                 round(fc.utilization_four, 3),
                 round(fc.leakage_fraction_four, 3)],
            ],
            title=f"Ablation: FU-count methodology (AlwaysActive, p={fc.p})",
        )
    )

    pp = predictive_policy(scale=scale)
    parts.append(
        format_table(
            ["policy", "energy (vs E_max)"],
            [[name, round(v, 4)] for name, v in sorted(pp.energies.items())],
            title=f"Ablation: complex controllers (p={pp.p})",
        )
    )

    l2 = l2_latency(scale=scale)
    parts.append(
        format_series(
            "L2 latency",
            list(l2.latencies),
            [
                ("idle fraction", [round(v, 3) for v in l2.idle_fractions]),
                ("idle within L2", [round(v, 3) for v in l2.fraction_within_latency]),
            ],
            title="Ablation: L2 hit latency vs ALU idleness",
        )
    )
    return "\n\n".join(parts)
