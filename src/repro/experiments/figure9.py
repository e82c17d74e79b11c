"""Figure 9: the technology sweep — averaged simulation results vs p.

Panel (a): suite-average energy of each policy relative to NoOverhead,
for p in [0.05, 1.0]. AlwaysActive degrades steeply with leakage;
MaxSleep starts worst and converges toward NoOverhead; GradualSleep
tracks the lower envelope across the whole range (the paper's argument
that it is robust to technology scaling).

Panel (b): the leakage fraction of total energy per policy — ~13% for
AlwaysActive at p = 0.05 growing to ~60% at p = 0.50, with NoOverhead's
floor showing the active-mode leakage that no sleep policy can remove.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentScale,
    collect_benchmark_data,
)
from repro.experiments.sweep import SweepGrid, evaluate_grid
from repro.util.summaries import arithmetic_mean
from repro.util.tables import format_series

DEFAULT_P_GRID = tuple(round(0.05 * i, 2) for i in range(1, 21))
DEFAULT_ALPHA = 0.50

MAX_SLEEP = "MaxSleep"
GRADUAL = "GradualSleep"
ALWAYS_ACTIVE = "AlwaysActive"
NO_OVERHEAD = "NoOverhead"
POLICY_ORDER = (GRADUAL, MAX_SLEEP, ALWAYS_ACTIVE)


@dataclass(frozen=True)
class Figure9Result:
    """Suite averages per technology point.

    ``relative_to_no_overhead[policy]`` and ``leakage_fraction[policy]``
    are series aligned with ``p_grid``.
    """

    p_grid: Tuple[float, ...]
    alpha: float
    relative_to_no_overhead: Dict[str, List[float]]
    leakage_fraction: Dict[str, List[float]]


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    p_grid: Sequence[float] = DEFAULT_P_GRID,
    alpha: float = DEFAULT_ALPHA,
    benchmarks: Sequence[str] = (),
) -> Figure9Result:
    """Sweep the leakage factor over the measured benchmark suite.

    A thin view over the sweep engine: the 20-point technology grid at
    one alpha is a single :func:`repro.experiments.sweep.evaluate_grid`
    pass over the cached simulation results.
    """
    names = list(benchmarks) if benchmarks else None
    data = collect_benchmark_data(scale=scale, benchmarks=names)
    grid = SweepGrid(
        p_values=tuple(p_grid),
        alphas=(alpha,),
        policies=POLICY_ORDER + (NO_OVERHEAD,),
    )
    swept = evaluate_grid(data, grid)

    relative: Dict[str, List[float]] = {name: [] for name in POLICY_ORDER}
    leakage: Dict[str, List[float]] = {
        name: [] for name in POLICY_ORDER + (NO_OVERHEAD,)
    }
    for p in grid.p_values:
        per_policy_ratios: Dict[str, List[float]] = {
            name: [] for name in POLICY_ORDER
        }
        per_policy_leakage: Dict[str, List[float]] = {
            name: [] for name in POLICY_ORDER + (NO_OVERHEAD,)
        }
        for bench in data:
            no_total = swept.cell(p, alpha, bench.name, NO_OVERHEAD).total_energy
            for name in POLICY_ORDER:
                per_policy_ratios[name].append(
                    swept.cell(p, alpha, bench.name, name).total_energy / no_total
                )
            for name in POLICY_ORDER + (NO_OVERHEAD,):
                per_policy_leakage[name].append(
                    swept.cell(p, alpha, bench.name, name).leakage_fraction
                )
        for name in POLICY_ORDER:
            relative[name].append(arithmetic_mean(per_policy_ratios[name]))
        for name in POLICY_ORDER + (NO_OVERHEAD,):
            leakage[name].append(arithmetic_mean(per_policy_leakage[name]))

    return Figure9Result(
        p_grid=tuple(p_grid),
        alpha=alpha,
        relative_to_no_overhead=relative,
        leakage_fraction=leakage,
    )


def crossover_p(result: Figure9Result) -> float:
    """The p where MaxSleep starts beating AlwaysActive (suite average)."""
    for p, ms, aa in zip(
        result.p_grid,
        result.relative_to_no_overhead[MAX_SLEEP],
        result.relative_to_no_overhead[ALWAYS_ACTIVE],
    ):
        if ms < aa:
            return p
    return float("inf")


def render(result: Figure9Result) -> str:
    parts = []
    parts.append(
        format_series(
            "p",
            list(result.p_grid),
            [
                (name, [round(v, 4) for v in result.relative_to_no_overhead[name]])
                for name in POLICY_ORDER
            ],
            title=(
                "Figure 9a: suite-average energy relative to NoOverhead "
                f"(alpha={result.alpha})"
            ),
        )
    )
    parts.append(
        format_series(
            "p",
            list(result.p_grid),
            [
                (name, [round(v, 4) for v in result.leakage_fraction[name]])
                for name in POLICY_ORDER + (NO_OVERHEAD,)
            ],
            title="Figure 9b: ratio of leakage to total energy",
        )
    )
    parts.append(
        f"MaxSleep overtakes AlwaysActive at p ~= {crossover_p(result):.2f}"
    )
    return "\n\n".join(parts)
