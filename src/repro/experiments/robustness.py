"""Policy robustness across the scenario space.

The paper ranks its sleep policies on nine benchmarks; this experiment
asks how far those rankings travel. It samples 50-200 scenarios from the
parametric families of :mod:`repro.scenarios`, pushes every simulation
through the parallel execution engine as one deduplicated batch, prices
the policy suite on each scenario with the vectorized evaluator, and
reports three things per policy:

* the **distribution** of energy savings vs AlwaysActive (mean, min,
  p10/median/p90, max) over the space and per family — point estimates
  on nine benchmarks become intervals;
* **ranking stability** per family: how often the family's modal policy
  ordering holds, which policies win cells, and mean ranks — the
  GREENER-style question of whether leakage-control conclusions survive
  a workload-mix change;
* the **worst-case scenario** per policy — the sampled workload where it
  saves the least, by stable scenario ID so the point is reproducible.

Exposed as the ``repro robustness`` CLI subcommand; ``--catalog`` writes
the sampled space (every profile field) as JSON next to the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.parameters import TechnologyParameters, check_alpha
from repro.cpu.config import MachineConfig
from repro.exec.engine import run_jobs
from repro.exec.jobs import SimulationJob
from repro.experiments.common import (
    DEFAULT_SCALE,
    BenchmarkEnergyData,
    ExperimentScale,
)
from repro.experiments.sweep import POLICY_FACTORIES
from repro.scenarios.space import Scenario, sample_scenarios
from repro.util.lookup import unknown_name_message
from repro.util.summaries import arithmetic_mean, quantile
from repro.util.tables import format_table

#: Default sampled-space size (the issue's 50-200 band, middle-ish).
DEFAULT_SCENARIO_COUNT = 60
DEFAULT_SCENARIO_SEED = 1
#: Default technology/activity point: the paper's projected high-leakage
#: regime, where policy choice matters most.
DEFAULT_P = 0.5
DEFAULT_ROBUSTNESS_ALPHA = 0.5
#: Ranked suite: the realizable policies plus the break-even oracle
#: upper bound. AlwaysActive is always evaluated too — it is the savings
#: denominator — but ranking it is uninteresting (it never sleeps).
DEFAULT_ROBUSTNESS_POLICIES: Tuple[str, ...] = (
    "MaxSleep",
    "GradualSleep",
    "TimeoutSleep",
    "BreakevenOracle",
)

_ALWAYS_ACTIVE = "AlwaysActive"


@dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario's evaluation: energies, savings, and the ranking."""

    scenario_id: str
    family: str
    num_fus: int
    ipc: float
    #: policy -> total energy normalized to the scenario's own E_max.
    normalized: Dict[str, float]
    #: policy -> fraction of AlwaysActive energy saved on the same work.
    savings: Dict[str, float]
    #: Ranked policy names, lowest energy first (ties broken by name so
    #: the ranking — and the stability statistics — are deterministic).
    ranking: Tuple[str, ...]


@dataclass(frozen=True)
class RobustnessResult:
    """The evaluated space, plus the aggregates the report needs."""

    policies: Tuple[str, ...]
    p: float
    alpha: float
    families: Tuple[str, ...]
    seed: int
    #: The exact sampled scenarios evaluated, aligned with ``outcomes``
    #: — what catalog writers must serialize (never a re-sample).
    scenarios: Tuple[Scenario, ...]
    outcomes: Tuple[ScenarioOutcome, ...]

    def family_outcomes(self, family: str) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if o.family == family]

    def savings_values(
        self, policy: str, family: Optional[str] = None
    ) -> List[float]:
        pool = self.outcomes if family is None else self.family_outcomes(family)
        return [o.savings[policy] for o in pool]

    def mean_rank(self, policy: str, family: Optional[str] = None) -> float:
        pool = self.outcomes if family is None else self.family_outcomes(family)
        return arithmetic_mean(
            [o.ranking.index(policy) + 1 for o in pool]
        )

    def wins(self, policy: str, family: Optional[str] = None) -> int:
        pool = self.outcomes if family is None else self.family_outcomes(family)
        return sum(1 for o in pool if o.ranking[0] == policy)

    def modal_ranking(self, family: str) -> Tuple[Tuple[str, ...], float]:
        """The family's most common full policy ordering and the fraction
        of its scenarios that produce exactly that ordering."""
        pool = self.family_outcomes(family)
        if not pool:
            raise ValueError(f"no scenarios in family {family!r}")
        counts: Dict[Tuple[str, ...], int] = {}
        for outcome in pool:
            counts[outcome.ranking] = counts.get(outcome.ranking, 0) + 1
        # Deterministic winner: highest count, then lexicographic order.
        best = max(counts.items(), key=lambda item: (item[1], item[0]))
        return best[0], best[1] / len(pool)

    def worst_case(self, policy: str) -> ScenarioOutcome:
        """The scenario where ``policy`` saves the least energy."""
        return min(
            self.outcomes,
            key=lambda o: (o.savings[policy], o.scenario_id),
        )


def check_suite(
    policies: Sequence[str], p: float, alpha: float
) -> TechnologyParameters:
    """Validate a ranked suite and its pricing point, before any work.

    Rejects an out-of-range ``alpha`` or ``p``, an empty or duplicated
    suite, and policies without a histogram closed form; returns the
    technology parameters the pricing pass uses.
    """
    check_alpha(alpha)
    names = list(policies)
    if not names:
        raise ValueError("robustness needs at least one policy")
    for name in names:
        if name not in POLICY_FACTORIES:
            raise ValueError(
                unknown_name_message("policy", name, POLICY_FACTORIES)
            )
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate policy names in {names}")
    return TechnologyParameters(leakage_factor_p=p)


def window_scale(
    scale: ExperimentScale, instructions: Optional[int]
) -> ExperimentScale:
    """``scale`` with its measured window overridden (warmup and seed kept)."""
    if instructions is None:
        return scale
    return ExperimentScale(
        window_instructions=instructions,
        warmup_instructions=scale.warmup_instructions,
        seed=scale.seed,
    )


def robustness_jobs(
    scenarios: Sequence[Scenario],
    scale: ExperimentScale = DEFAULT_SCALE,
) -> List[SimulationJob]:
    """The simulation batch: one histogram-only run per scenario at its
    sampled FU width."""
    base = MachineConfig()
    return [
        SimulationJob.from_scale(
            scenario.profile,
            scale,
            base.with_int_fus(scenario.num_fus),
            record_sequences=False,
        )
        for scenario in scenarios
    ]


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    count: int = DEFAULT_SCENARIO_COUNT,
    seed: int = DEFAULT_SCENARIO_SEED,
    families: Optional[Sequence[str]] = None,
    policies: Sequence[str] = DEFAULT_ROBUSTNESS_POLICIES,
    p: float = DEFAULT_P,
    alpha: float = DEFAULT_ROBUSTNESS_ALPHA,
    instructions: Optional[int] = None,
) -> RobustnessResult:
    """Sample the space, simulate it through the engine, price the suite.

    The simulations are the expensive part; they carry scenario-specific
    cache keys (profile content + catalog digest + model fingerprint),
    so repeated runs of the same space are pure cache reads. The pricing
    pass is one vectorized evaluation per (scenario, policy).

    ``instructions`` overrides the scale's measured window per scenario
    (warmup and seed are kept). Long horizons are the point of the
    override — idle-interval tails only show up over them — and they
    run in bounded memory: at or beyond the streaming threshold every
    simulation switches to the chunked trace path automatically, so
    ``instructions=10_000_000`` is a time cost, not a memory cost.
    """
    params = check_suite(policies, p, alpha)
    names = list(policies)
    scenarios = sample_scenarios(count, seed=seed, families=families)
    batch = robustness_jobs(scenarios, scale=window_scale(scale, instructions))
    results = run_jobs(batch)

    evaluated = list(dict.fromkeys([*names, _ALWAYS_ACTIVE]))
    outcomes: List[ScenarioOutcome] = []
    for scenario, job, result in zip(scenarios, batch, results):
        data = BenchmarkEnergyData(
            name=scenario.scenario_id,
            num_fus=job.config.num_int_fus,
            result=result,
        )
        suite = {name: POLICY_FACTORIES[name](params, alpha) for name in evaluated}
        by_instance = data.evaluate_policies(
            params, alpha, list(suite.values())
        )
        # Instance names are parameterized (GradualSleep(n=2)); report
        # under the stable registry names.
        normalized = {
            name: by_instance[policy.name] for name, policy in suite.items()
        }
        always = normalized[_ALWAYS_ACTIVE]
        savings = {
            name: 1.0 - normalized[name] / always for name in evaluated
        }
        ranking = tuple(
            sorted(names, key=lambda name: (normalized[name], name))
        )
        outcomes.append(
            ScenarioOutcome(
                scenario_id=scenario.scenario_id,
                family=scenario.family,
                num_fus=scenario.num_fus,
                ipc=result.stats.ipc,
                normalized=normalized,
                savings=savings,
                ranking=ranking,
            )
        )

    family_order = tuple(
        dict.fromkeys(scenario.family for scenario in scenarios)
    )
    return RobustnessResult(
        policies=tuple(names),
        p=p,
        alpha=alpha,
        families=family_order,
        seed=seed,
        scenarios=tuple(scenarios),
        outcomes=tuple(outcomes),
    )


def _percent(value: float) -> float:
    return round(100.0 * value, 2)


def render(result: RobustnessResult) -> str:
    """Savings distributions, per-family means, ranking stability, and
    worst cases — the tables the robustness question needs."""
    parts = [
        "Policy robustness: {n} scenarios across {nf} families "
        "({npol} policies, p={p:g}, alpha={alpha:g}, seed={seed})".format(
            n=len(result.outcomes),
            nf=len(result.families),
            npol=len(result.policies),
            p=result.p,
            alpha=result.alpha,
            seed=result.seed,
        )
    ]

    distribution_rows = []
    for policy in result.policies:
        values = result.savings_values(policy)
        distribution_rows.append([
            policy,
            _percent(arithmetic_mean(values)),
            _percent(min(values)),
            _percent(quantile(values, 0.10)),
            _percent(quantile(values, 0.50)),
            _percent(quantile(values, 0.90)),
            _percent(max(values)),
        ])
    parts.append(format_table(
        ["policy", "mean", "min", "p10", "median", "p90", "max"],
        distribution_rows,
        title="Energy savings vs AlwaysActive, % of its energy "
        "(distribution over all scenarios)",
    ))

    family_rows = []
    for policy in result.policies:
        row: List[object] = [policy]
        for family in result.families:
            row.append(_percent(
                arithmetic_mean(result.savings_values(policy, family))
            ))
        family_rows.append(row)
    parts.append(format_table(
        ["policy"] + list(result.families),
        family_rows,
        title="Mean savings % per family",
    ))

    stability_rows = []
    for family in result.families:
        ranking, stability = result.modal_ranking(family)
        stability_rows.append([
            family,
            len(result.family_outcomes(family)),
            " > ".join(ranking),
            _percent(stability),
        ])
    parts.append(format_table(
        ["family", "n", "modal ranking (best first)", "stability %"],
        stability_rows,
        title="Policy-ranking stability per family "
        "(stability = share of the family's scenarios with exactly the "
        "modal ordering)",
    ))

    rank_rows = []
    for policy in result.policies:
        row = [policy, result.wins(policy), round(result.mean_rank(policy), 2)]
        for family in result.families:
            row.append(round(result.mean_rank(policy, family), 2))
        rank_rows.append(row)
    parts.append(format_table(
        ["policy", "wins", "mean rank"] + [f"{f} rank" for f in result.families],
        rank_rows,
        title="Wins (rank-1 scenarios) and mean rank, overall and per family",
    ))

    worst_rows = []
    for policy in result.policies:
        worst = result.worst_case(policy)
        worst_rows.append([
            policy,
            worst.scenario_id,
            worst.family,
            worst.num_fus,
            round(worst.ipc, 3),
            _percent(worst.savings[policy]),
            round(worst.normalized[policy], 4),
        ])
    parts.append(format_table(
        ["policy", "worst scenario", "family", "FUs", "IPC",
         "savings %", "E/E_max"],
        worst_rows,
        title="Worst-case scenario per policy (lowest savings)",
    ))
    return "\n\n".join(parts)


def main() -> None:  # pragma: no cover - CLI convenience
    print(render(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
