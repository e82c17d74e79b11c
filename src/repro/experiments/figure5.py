"""Figure 5c: energy to transition to the sleep mode, per policy.

The per-interval energy of MaxSleep, GradualSleep, and AlwaysActive as a
function of the idle interval's length, at the near-term technology
point p = 0.05 and alpha = 0.5, with the GradualSleep slice count matched
to the break-even interval. The paper's qualitative claims:

* GradualSleep beats MaxSleep on short intervals and AlwaysActive on
  long ones;
* near the break-even point GradualSleep spends *more* than either —
  the price of hedging;
* far out, GradualSleep approaches MaxSleep from above.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.breakeven import breakeven_interval
from repro.core.parameters import TechnologyParameters
from repro.core.transition import IntervalEnergyCurves, interval_energy_curves
from repro.util.tables import format_series

DEFAULT_P = 0.05
DEFAULT_ALPHA = 0.5
MAX_INTERVAL = 100


@dataclass(frozen=True)
class Figure5Result:
    """The three per-interval energy curves plus the break-even point."""

    curves: IntervalEnergyCurves
    breakeven: float
    params: TechnologyParameters


def run(
    p: float = DEFAULT_P,
    alpha: float = DEFAULT_ALPHA,
    max_interval: int = MAX_INTERVAL,
) -> Figure5Result:
    """Sweep the idle-interval length for the three policies."""
    params = TechnologyParameters(leakage_factor_p=p)
    curves = interval_energy_curves(params, alpha, max_interval=max_interval)
    return Figure5Result(
        curves=curves,
        breakeven=breakeven_interval(params, alpha),
        params=params,
    )


def render(result: Figure5Result) -> str:
    curves = result.curves
    table = format_series(
        "cycles",
        list(curves.intervals),
        [
            ("MaxSleep", [round(v, 4) for v in curves.max_sleep]),
            ("GradualSleep", [round(v, 4) for v in curves.gradual_sleep]),
            ("AlwaysActive", [round(v, 4) for v in curves.always_active]),
        ],
        title=(
            "Figure 5c: per-interval energy (relative to E_D) — "
            f"p={result.params.leakage_factor_p}, alpha={curves.alpha}, "
            f"{curves.num_slices} slices"
        ),
    )
    return (
        table
        + f"\nanalytic break-even interval: {result.breakeven:.1f} cycles; "
        + f"measured crossover: {curves.crossover_interval()} cycles"
    )
