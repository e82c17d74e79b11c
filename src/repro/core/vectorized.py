"""Batched policy evaluation over idle-interval histograms, in plain Python.

The scalar accounting path in :mod:`repro.core.accounting` walks every
(length, count) pair of a histogram through ``policy.on_interval`` — fine
for one evaluation, but the post-simulation hot path once a sweep grid
multiplies it by (technology x alpha x policy x benchmark x FU). This
module evaluates a whole histogram through each policy's closed form
(:meth:`~repro.core.policies.SleepPolicy.outcomes_for_lengths`) and
memoizes per-policy outcome *totals*, so re-pricing a grid cell is O(1)
in the histogram size. Histograms are small — the quick suite's units
have 57 distinct interval lengths at the median and about a hundred at
most — so float lists beat array libraries here: there is no per-call
overhead to amortize, and nothing to import.

Exactness contract
------------------
For every stateless policy, evaluating a histogram through
:class:`HistogramBatch` is **float-for-float identical** to the scalar
per-(length, count) loop:

* the per-element arithmetic of each policy's closed form reproduces
  the scalar ``on_interval`` operations exactly (same operations, same
  order, on the same float values);
* the reduction multiplies each outcome by its count (one multiply, as
  in the scalar loop) and then adds the products in ascending-length
  order with an explicit left-to-right ``+=`` starting from ``0.0``.
  Not builtin ``sum``, which compensates float sums on CPython >= 3.12,
  and not :func:`math.fsum`: both round differently from the loop.

``tests/test_core_vectorized.py`` enforces the contract with ``==`` (no
tolerance) across the full nine-benchmark suite.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.parameters import TechnologyParameters, check_alpha
from repro.util.intervals import IntervalHistogram


def exact_weighted_sum(values: Sequence[float], counts: Sequence[float]) -> float:
    """``sum(values[i] * counts[i])`` in ascending index order.

    Bit-identical to the scalar accounting loop: one multiply per pair,
    accumulated left to right from ``0.0``.
    """
    total = 0.0
    for value, count in zip(values, counts):
        total += value * count
    return total


class HistogramBatch:
    """An :class:`IntervalHistogram` as aligned float lists, plus a totals memo.

    ``lengths``/``counts`` are float lists sorted by ascending length —
    the same order the scalar path iterates. ``outcome_totals`` memoizes
    per-policy ``(uncontrolled, sleep, transitions)`` totals keyed by
    :meth:`~repro.core.policies.SleepPolicy.outcome_key`, which is what
    makes sweep grids cheap: the boundary policies hash to one entry for
    the whole grid, and parameterized policies to one entry per distinct
    configuration (e.g. per GradualSleep slice count).
    """

    __slots__ = ("lengths", "counts", "total_idle_cycles", "_totals")

    def __init__(self, histogram: IntervalHistogram):
        items = sorted(histogram.counts.items())
        self.lengths: List[float] = [float(length) for length, _ in items]
        self.counts: List[float] = [float(count) for _, count in items]
        self.total_idle_cycles = histogram.total_idle_cycles
        self._totals: Dict[Tuple, Tuple[float, float, float]] = {}

    @classmethod
    def wrap(cls, histogram) -> "HistogramBatch":
        """Idempotent constructor: batches pass through unchanged."""
        if isinstance(histogram, cls):
            return histogram
        return cls(histogram)

    def __len__(self) -> int:
        return len(self.lengths)

    def outcome_totals(self, policy) -> Tuple[float, float, float]:
        """Histogram-weighted ``(uncontrolled, sleep, transitions)`` totals.

        Equals the scalar accumulation of ``policy.on_interval`` over
        every (length, count) pair, float for float. Memoized by the
        policy's ``outcome_key`` when it provides one.
        """
        key = policy.outcome_key()
        if key is not None:
            cached = self._totals.get(key)
            if cached is not None:
                return cached
        policy.reset()
        uncontrolled, sleep, transitions = policy.outcomes_for_lengths(self.lengths)
        totals = (
            exact_weighted_sum(uncontrolled, self.counts),
            exact_weighted_sum(sleep, self.counts),
            exact_weighted_sum(transitions, self.counts),
        )
        if key is not None:
            self._totals[key] = totals
        return totals


class CellPricer:
    """Per-(technology, alpha) coefficients for pricing outcome totals.

    A sweep grid prices thousands of (policy, FU) cycle taxonomies per
    cell; going through ``relative_energy`` + the accounting dataclasses
    for each costs more than the arithmetic. This hoists the cell's
    per-cycle coefficients once and prices a unit in seven multiplies —
    **reproducing the scalar chain float for float**: every hoisted
    coefficient is a parenthesized subexpression the scalar path
    evaluates before multiplying (so precomputing it preserves bits),
    and :meth:`unit_terms` performs the same multiplications on the same
    operands as ``relative_energy`` / ``EnergyAccountant._finish``.
    """

    __slots__ = (
        "alpha",
        "leakage_p",
        "state_mix",
        "active_leak_coeff",
        "sleep_coeff",
        "transition_dynamic_coeff",
        "sleep_overhead",
        "active_cycle_energy",
    )

    def __init__(self, params: TechnologyParameters, alpha: float):
        check_alpha(alpha)
        d = params.duty_cycle
        p = params.leakage_factor_p
        q = params.state_mix(alpha)
        self.alpha = alpha
        self.leakage_p = p
        self.state_mix = q
        # relative_energy: counts.active * ((1.0 - d) * p + d * q * p)
        self.active_leak_coeff = (1.0 - d) * p + d * q * p
        # relative_energy: counts.sleep * params.sleep_cycle_energy()
        self.sleep_coeff = params.sleep_cycle_energy()
        # relative_energy: counts.transitions * (1.0 - alpha)
        self.transition_dynamic_coeff = 1.0 - alpha
        self.sleep_overhead = params.sleep_overhead
        # EnergyAccountant.baseline_energy: cycles * active_cycle_energy
        self.active_cycle_energy = params.active_cycle_energy(alpha)

    def unit_terms(
        self,
        active_cycles: float,
        idle_cycles: float,
        outcome_totals: Tuple[float, float, float],
    ) -> Tuple[float, float, float, float, float, float, float]:
        """One unit's six breakdown terms plus its E_max baseline.

        Bit-identical to ``relative_energy(params, alpha, counts)``'s
        fields and ``_finish``'s ``baseline_energy(active + idle)``.
        Summing each term across units in order reproduces the
        ``EnergyBreakdown.plus`` / ``PolicyResult`` merge exactly.
        """
        uncontrolled, sleep, transitions = outcome_totals
        return (
            active_cycles * self.alpha,
            active_cycles * self.active_leak_coeff,
            uncontrolled * self.state_mix * self.leakage_p,
            sleep * self.sleep_coeff,
            transitions * self.transition_dynamic_coeff,
            transitions * self.sleep_overhead,
            (active_cycles + idle_cycles) * self.active_cycle_energy,
        )
