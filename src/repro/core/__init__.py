"""The paper's primary contribution: the architecture-level static-energy
model for functional-unit logic and the sleep-mode management policies.

Layout:

* :mod:`repro.core.parameters` — :class:`TechnologyParameters` (p, k,
  e_ovh, duty cycle) and the per-cycle relative energy terms,
* :mod:`repro.core.energy_model` — cycle taxonomy and equations (1)-(3),
* :mod:`repro.core.breakeven` — the break-even interval, equations (4)-(5),
* :mod:`repro.core.policy_energy` — usage-factor closed forms, eq. (6)-(9),
* :mod:`repro.core.gradual` — the GradualSleep slice design of Section 3.2,
* :mod:`repro.core.transition` — per-interval energy curves (Figure 5c),
* :mod:`repro.core.policies` — event-driven sleep controllers,
* :mod:`repro.core.accounting` — interval-histogram energy accounting used
  by the empirical study (Figures 8-9),
* :mod:`repro.core.sleep_control` — online sleep controllers, runtime
  energy-state tallies, and the policy registry behind the closed-loop
  (``repro perf``) simulations,
* :mod:`repro.core.vectorized` — the batched histogram engine behind
  sweep grids: per-policy closed forms over float lists, float-for-float
  equal to the scalar path,
* :mod:`repro.core.activity` — activity factors estimated from operand
  values (the Brooks & Martonosi link in Section 4),
* :mod:`repro.core.datapath` — the byte-sliced GradualSleep extension the
  paper's Section 6 proposes.
"""

from repro.core.parameters import (
    MODEL_DEFAULTS,
    PAPER_ALPHAS_ANALYTIC,
    PAPER_ALPHAS_EMPIRICAL,
    TechnologyParameters,
)
from repro.core.energy_model import (
    CycleCounts,
    EnergyBreakdown,
    absolute_energy_fj,
    relative_energy,
)
from repro.core.breakeven import breakeven_interval, breakeven_sweep
from repro.core.policy_energy import (
    PolicyEnergies,
    UsageScenario,
    policy_cycle_counts,
    policy_energies,
)
from repro.core.gradual import GradualSleepDesign
from repro.core.transition import interval_energy_curves
from repro.core.policies import (
    AlwaysActivePolicy,
    BreakevenOraclePolicy,
    GradualSleepPolicy,
    MaxSleepPolicy,
    NoOverheadPolicy,
    PredictiveSleepPolicy,
    SleepPolicy,
    run_policy_on_intervals,
)
from repro.core.accounting import EnergyAccountant, PolicyResult
from repro.core.sleep_control import (
    POLICY_BUILDERS,
    PolicyController,
    RuntimeTally,
    SleepController,
    breakeven_timeout,
    build_controllers,
    build_policy,
)
from repro.core.vectorized import HistogramBatch, exact_weighted_sum
from repro.core.activity import (
    OperandValueModel,
    estimate_alpha_from_values,
)
from repro.core.datapath import ByteSlicedDatapath, ByteSlicedGradualSleep

__all__ = [
    "AlwaysActivePolicy",
    "ByteSlicedDatapath",
    "ByteSlicedGradualSleep",
    "OperandValueModel",
    "estimate_alpha_from_values",
    "BreakevenOraclePolicy",
    "CycleCounts",
    "EnergyAccountant",
    "EnergyBreakdown",
    "GradualSleepDesign",
    "GradualSleepPolicy",
    "HistogramBatch",
    "exact_weighted_sum",
    "MODEL_DEFAULTS",
    "MaxSleepPolicy",
    "NoOverheadPolicy",
    "PAPER_ALPHAS_ANALYTIC",
    "PAPER_ALPHAS_EMPIRICAL",
    "POLICY_BUILDERS",
    "PolicyController",
    "PolicyEnergies",
    "PolicyResult",
    "PredictiveSleepPolicy",
    "RuntimeTally",
    "SleepController",
    "SleepPolicy",
    "breakeven_timeout",
    "build_controllers",
    "build_policy",
    "TechnologyParameters",
    "UsageScenario",
    "absolute_energy_fj",
    "breakeven_interval",
    "breakeven_sweep",
    "interval_energy_curves",
    "policy_cycle_counts",
    "policy_energies",
    "relative_energy",
    "run_policy_on_intervals",
]
