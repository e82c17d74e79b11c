"""Parameter-grid sweeps over the cached simulation results.

The paper evaluates its policies at two technology points and three
activity factors; related leakage studies sweep whole parameter grids
(technology node x duty cycle x latency — cf. the multi-level-cache
leakage trade-off literature). :class:`SweepGrid` generalizes our
empirical experiments the same way: it evaluates the full cross-product
of (technology parameters x alpha grid x policies x benchmarks x per-FU
histograms) in one batched pass over the already-simulated benchmark
data, using the array-backed accounting engine of
:mod:`repro.core.vectorized`. A 10x10 alpha x technology grid over all
nine benchmarks is a seconds-scale operation; the scalar per-(length,
count) loop it replaces took minutes.

Exposed as the ``repro sweep`` CLI subcommand; Figures 8 and 9 are thin
views over the same engine (their grids are 2x3 and 20x1 slices of it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.parameters import TechnologyParameters, check_alpha
from repro.core.sleep_control import POLICY_BUILDERS, breakeven_timeout
from repro.core.vectorized import CellPricer
from repro.core.policies import SleepPolicy
from repro.experiments.common import (
    DEFAULT_SCALE,
    BenchmarkEnergyData,
    ExperimentScale,
    benchmark_jobs,
    collect_benchmark_data,
)
from repro.exec.jobs import SimulationJob
from repro.util.summaries import arithmetic_mean
from repro.util.tables import format_table

PolicyFactory = Callable[[TechnologyParameters, float], SleepPolicy]

#: Break-even-matched timeout helper (kept under its historical name).
_timeout_for = breakeven_timeout

#: Stateless policies the sweep engine knows how to build per grid cell —
#: the shared :data:`repro.core.sleep_control.POLICY_BUILDERS` registry
#: minus its stateful entries, which have no histogram closed form (the
#: closed-loop ``repro perf`` path evaluates those).
POLICY_FACTORIES: Dict[str, PolicyFactory] = {
    name: builder
    for name, builder in POLICY_BUILDERS.items()
    if name != "PredictiveSleep"
}

#: Figure 8/9's bar order — the default sweep suite.
DEFAULT_POLICIES = ("MaxSleep", "GradualSleep", "AlwaysActive", "NoOverhead")


def parse_grid(spec: str) -> Tuple[float, ...]:
    """Parse a grid spec: ``lo:hi:n`` (n evenly spaced points, endpoints
    included) or a comma-separated list of values.

    >>> parse_grid("0.1:0.5:3")
    (0.1, 0.3, 0.5)
    >>> parse_grid("0.05,0.5")
    (0.05, 0.5)
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty grid spec")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec must be 'lo:hi:n', got {spec!r}")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1:
            raise ValueError(f"grid must have >= 1 point, got {n}")
        if n == 1:
            return (lo,)
        step = (hi - lo) / (n - 1)
        # Round away float-linspace noise so grid values make clean keys.
        return tuple(round(lo + i * step, 10) for i in range(n))
    values = tuple(float(token) for token in spec.split(",") if token.strip())
    if not values:
        raise ValueError(f"no grid values in {spec!r}")
    return values


@dataclass(frozen=True)
class SweepGrid:
    """The cross-product to evaluate: technology x alpha x policy.

    ``p_values`` sweeps the leakage factor; the remaining technology
    constants (k, e_ovh, D) are fixed per grid, defaulting to the
    paper's. Policies are named (see :data:`POLICY_FACTORIES`) because
    parameterized policies must be rebuilt per (technology, alpha) cell.
    """

    p_values: Tuple[float, ...]
    alphas: Tuple[float, ...]
    policies: Tuple[str, ...] = DEFAULT_POLICIES
    sleep_ratio_k: float = 0.001
    sleep_overhead: float = 0.01
    duty_cycle: float = 0.5

    def __post_init__(self) -> None:
        if not self.p_values:
            raise ValueError("sweep needs at least one technology point")
        if not self.alphas:
            raise ValueError("sweep needs at least one activity factor")
        if not self.policies:
            raise ValueError("sweep needs at least one policy")
        for alpha in self.alphas:
            check_alpha(alpha)
        for p in self.p_values:
            self.technology(p)  # rejects an out-of-range leakage factor
        unknown = [name for name in self.policies if name not in POLICY_FACTORIES]
        if unknown:
            known = ", ".join(sorted(POLICY_FACTORIES))
            raise ValueError(f"unknown policies {unknown}; known: {known}")
        for label, values in (
            ("policy names", self.policies),
            ("p values", self.p_values),
            ("alphas", self.alphas),
        ):
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {label} in {values}")

    def technology(self, p: float) -> TechnologyParameters:
        return TechnologyParameters(
            leakage_factor_p=p,
            sleep_ratio_k=self.sleep_ratio_k,
            sleep_overhead=self.sleep_overhead,
            duty_cycle=self.duty_cycle,
        )

    @property
    def num_cells(self) -> int:
        return len(self.p_values) * len(self.alphas) * len(self.policies)


#: Default grid of the ``repro sweep`` subcommand: 10 technology points
#: spanning the paper's p range and 10 alphas spanning its empirical band.
#: The spec strings are the single source for both the CLI defaults and
#: the Python-API default grid.
DEFAULT_P_SPEC = "0.05:0.5:10"
DEFAULT_ALPHA_SPEC = "0.25:0.75:10"
DEFAULT_P_GRID = parse_grid(DEFAULT_P_SPEC)
DEFAULT_ALPHA_GRID = parse_grid(DEFAULT_ALPHA_SPEC)


@dataclass(frozen=True)
class SweepCell:
    """One (p, alpha, benchmark, policy) evaluation, summed over FUs."""

    total_energy: float
    baseline_energy: float
    normalized_energy: float
    leakage_fraction: float


@dataclass(frozen=True)
class SweepResult:
    """The evaluated grid, indexed by ``(p, alpha, benchmark, policy)``."""

    grid: SweepGrid
    benchmarks: Tuple[str, ...]
    fu_counts: Dict[str, int]
    cells: Dict[Tuple[float, float, str, str], SweepCell]

    def cell(
        self, p: float, alpha: float, benchmark: str, policy: str
    ) -> SweepCell:
        return self.cells[(p, alpha, benchmark, policy)]

    def suite_mean(self, p: float, alpha: float, policy: str) -> float:
        """Suite-average normalized energy at one grid cell."""
        return arithmetic_mean(
            [
                self.cells[(p, alpha, name, policy)].normalized_energy
                for name in self.benchmarks
            ]
        )

    def best_policy(self, p: float, alpha: float) -> str:
        """The policy with the lowest suite-average energy at a cell."""
        return min(
            self.grid.policies, key=lambda name: self.suite_mean(p, alpha, name)
        )


def evaluate_grid(
    data: Sequence[BenchmarkEnergyData],
    grid: SweepGrid,
    vectorized: bool = True,
) -> SweepResult:
    """Evaluate every grid cell against the simulated benchmark data.

    One batched pass: the simulation results are taken as given (cached
    or freshly run), per-FU histograms are materialized as arrays once
    per benchmark, per-policy outcome totals are memoized across cells
    (the boundary policies are priced from one batched evaluation for
    the entire grid), and each cell is priced through
    :class:`~repro.core.vectorized.CellPricer` with hoisted per-cell
    coefficients. ``vectorized=False`` runs the scalar per-(length,
    count) accounting loop instead; both paths are float-for-float
    identical (enforced by the exact-equality test suite).
    """
    cells: Dict[Tuple[float, float, str, str], SweepCell] = {}
    for p in grid.p_values:
        params = grid.technology(p)
        for alpha in grid.alphas:
            suite = [
                (name, POLICY_FACTORIES[name](params, alpha))
                for name in grid.policies
            ]
            if vectorized:
                pricer = CellPricer(params, alpha)
                for bench in data:
                    batches = bench.per_fu_batches()
                    actives = bench.per_fu_active_cycles()
                    for name, policy in suite:
                        cells[(p, alpha, bench.name, name)] = _price_cell(
                            pricer, policy, actives, batches
                        )
            else:
                for bench in data:
                    merged = bench.evaluate_policy_breakdowns(
                        params,
                        alpha,
                        [policy for _, policy in suite],
                        vectorized=False,
                    )
                    for name, policy in suite:
                        result = merged[policy.name]
                        cells[(p, alpha, bench.name, name)] = SweepCell(
                            total_energy=result.total_energy,
                            baseline_energy=result.baseline_energy,
                            normalized_energy=result.normalized_energy,
                            leakage_fraction=result.leakage_fraction,
                        )
    return SweepResult(
        grid=grid,
        benchmarks=tuple(bench.name for bench in data),
        fu_counts={bench.name: bench.num_fus for bench in data},
        cells=cells,
    )


def _price_cell(pricer, policy, actives, batches) -> SweepCell:
    """Sum one policy's per-FU terms into a cell, in FU order.

    Mirrors the ``merge_policy_results`` accumulation exactly: each of
    the six breakdown terms and the baseline sums left-to-right across
    FUs, the total is the six-term sum in ``EnergyBreakdown.total``'s
    field order, and leakage is its three leakage terms.
    """
    dynamic = active_leak = idle_leak = sleep_leak = 0.0
    transition_dynamic = transition_overhead = baseline = 0.0
    for active_cycles, batch in zip(actives, batches):
        terms = pricer.unit_terms(
            active_cycles, batch.total_idle_cycles, batch.outcome_totals(policy)
        )
        dynamic += terms[0]
        active_leak += terms[1]
        idle_leak += terms[2]
        sleep_leak += terms[3]
        transition_dynamic += terms[4]
        transition_overhead += terms[5]
        baseline += terms[6]
    total = (
        dynamic
        + active_leak
        + idle_leak
        + sleep_leak
        + transition_dynamic
        + transition_overhead
    )
    leakage = active_leak + idle_leak + sleep_leak
    return SweepCell(
        total_energy=total,
        baseline_energy=baseline,
        normalized_energy=total / baseline,
        leakage_fraction=leakage / total if total != 0 else 0.0,
    )


def sweep_jobs(
    scale: ExperimentScale = DEFAULT_SCALE,
    benchmarks: Optional[Sequence[str]] = None,
) -> List[SimulationJob]:
    """The simulation batch a sweep needs: the suite at reference FU
    counts — exposed so the runner's prewarm covers sweeps too."""
    return benchmark_jobs(scale=scale, benchmarks=benchmarks)


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    grid: Optional[SweepGrid] = None,
    benchmarks: Sequence[str] = (),
) -> SweepResult:
    """Simulate (or reuse cached) benchmark data, then evaluate the grid."""
    if grid is None:
        grid = SweepGrid(p_values=DEFAULT_P_GRID, alphas=DEFAULT_ALPHA_GRID)
    names = list(benchmarks) if benchmarks else None
    data = collect_benchmark_data(scale=scale, benchmarks=names)
    return evaluate_grid(data, grid)


def render(result: SweepResult) -> str:
    """One p x alpha table of suite-average energy per policy, plus the
    per-cell winner map."""
    grid = result.grid
    parts = [
        "Policy sweep: {cells} cells = {np} technology x {na} alpha x "
        "{npol} policies over {nb} benchmarks ({fus} FUs)".format(
            cells=grid.num_cells,
            np=len(grid.p_values),
            na=len(grid.alphas),
            npol=len(grid.policies),
            nb=len(result.benchmarks),
            fus=sum(result.fu_counts.values()),
        )
    ]
    headers = ["p \\ alpha"] + [f"{alpha:g}" for alpha in grid.alphas]
    for policy in grid.policies:
        rows = []
        for p in grid.p_values:
            rows.append(
                [f"{p:g}"]
                + [
                    round(result.suite_mean(p, alpha, policy), 4)
                    for alpha in grid.alphas
                ]
            )
        parts.append(
            format_table(
                headers,
                rows,
                title=f"{policy}: suite-average energy vs E_max "
                f"(k={grid.sleep_ratio_k:g}, e_ovh={grid.sleep_overhead:g}, "
                f"D={grid.duty_cycle:g})",
            )
        )
    winner_rows = [
        [f"{p:g}"] + [result.best_policy(p, alpha) for alpha in grid.alphas]
        for p in grid.p_values
    ]
    parts.append(
        format_table(
            headers, winner_rows, title="Lowest-energy policy per grid cell"
        )
    )
    return "\n\n".join(parts)
