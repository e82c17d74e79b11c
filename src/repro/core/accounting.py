"""Histogram-driven energy accounting for the empirical study.

The pipeline simulator reduces each functional unit's lifetime to an
active-cycle count plus an :class:`~repro.util.intervals.IntervalHistogram`
of its idle intervals. For the stateless policies this is lossless: the
outcome of an interval depends only on its length, so energy can be
accumulated per (length, count) pair — far cheaper than replaying millions
of cycles. The ``vectorized`` switch routes that accumulation through the
batched engine in :mod:`repro.core.vectorized` (per-policy closed forms,
memoized totals), which is float-for-float identical to the scalar loop
while amortizing sweep-grid evaluations. Stateful policies (the
predictive extensions) are evaluated on ordered interval sequences via
:func:`repro.core.policies.run_policy_on_intervals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Union

from repro.core.energy_model import CycleCounts, EnergyBreakdown, relative_energy
from repro.core.parameters import TechnologyParameters, check_alpha
from repro.core.policies import SleepPolicy, run_policy_on_intervals
from repro.core.sleep_control import RuntimeTally
from repro.core.vectorized import HistogramBatch
from repro.util.intervals import IntervalHistogram


@dataclass(frozen=True)
class PolicyResult:
    """A policy's energy over one unit's lifetime, with normalizations."""

    policy_name: str
    counts: CycleCounts
    breakdown: EnergyBreakdown
    total_cycles: float
    baseline_energy: float

    @property
    def total_energy(self) -> float:
        """Total relative energy (units of E_D)."""
        return self.breakdown.total

    @property
    def normalized_energy(self) -> float:
        """Energy normalized to E_max (100%-computation) — Figure 8's y-axis."""
        return self.breakdown.total / self.baseline_energy

    @property
    def leakage_fraction(self) -> float:
        """Leakage share of total energy — Figure 9b's y-axis."""
        return self.breakdown.leakage_fraction


class EnergyAccountant:
    """Evaluates sleep policies against measured idle behavior."""

    def __init__(self, params: TechnologyParameters, alpha: float):
        check_alpha(alpha)
        self.params = params
        self.alpha = alpha

    def baseline_energy(self, total_cycles: float) -> float:
        """E_max: the unit computing on every one of ``total_cycles``."""
        if total_cycles <= 0:
            raise ValueError(f"total cycles must be positive, got {total_cycles}")
        return total_cycles * self.params.active_cycle_energy(self.alpha)

    def evaluate_histogram(
        self,
        policy: SleepPolicy,
        active_cycles: float,
        histogram: Union[IntervalHistogram, HistogramBatch],
        vectorized: bool = False,
    ) -> PolicyResult:
        """Account a stateless policy against an interval histogram.

        With ``vectorized=True`` (implied when ``histogram`` is already a
        :class:`HistogramBatch`) the per-(length, count) accumulation runs
        through the batched engine — exactly equal, float for float,
        to the scalar loop, with per-policy totals memoized on the batch.
        """
        if not policy.stateless:
            raise ValueError(
                f"policy {policy.name!r} is stateful; use evaluate_sequence"
            )
        if active_cycles < 0:
            raise ValueError(f"active cycles must be >= 0, got {active_cycles}")
        if vectorized or isinstance(histogram, HistogramBatch):
            batch = HistogramBatch.wrap(histogram)
            uncontrolled, sleep, transitions = batch.outcome_totals(policy)
            idle_cycles = batch.total_idle_cycles
        else:
            policy.reset()
            uncontrolled = 0.0
            sleep = 0.0
            transitions = 0.0
            for length, count in histogram:
                outcome = policy.on_interval(length)
                uncontrolled += outcome.uncontrolled_idle * count
                sleep += outcome.sleep * count
                transitions += outcome.transitions * count
            idle_cycles = histogram.total_idle_cycles
        counts = CycleCounts(
            active=active_cycles,
            uncontrolled_idle=uncontrolled,
            sleep=sleep,
            transitions=transitions,
        )
        return self._finish(policy.name, counts, idle_cycles)

    def evaluate_sequence(
        self,
        policy: SleepPolicy,
        active_cycles: float,
        intervals: Sequence[int],
    ) -> PolicyResult:
        """Account any policy (stateful included) against an ordered stream."""
        run = run_policy_on_intervals(
            policy, intervals, self.params, self.alpha, active_cycles
        )
        idle_cycles = float(sum(intervals))
        return self._finish(run.policy_name, run.counts, idle_cycles)

    def evaluate_runtime(
        self, policy_name: str, tally: RuntimeTally
    ) -> PolicyResult:
        """Price the energy-state tallies of one closed-loop unit.

        The tally's uncontrolled/sleep/transition components are sums of
        the same :class:`~repro.core.policies.IntervalOutcome` values the
        open-loop walks produce, so a zero-wakeup-latency closed-loop run
        prices float-for-float identically to
        :meth:`evaluate_histogram` / :meth:`evaluate_sequence` on the
        same intervals. ``waking`` and ``awake_wait`` cycles (nonzero
        only with a real wakeup latency) are priced at the
        uncontrolled-idle leakage rate: the unit is powered but useless.
        """
        wake_idle = tally.waking + tally.awake_wait
        counts = CycleCounts(
            active=tally.active,
            uncontrolled_idle=tally.uncontrolled_idle + wake_idle,
            sleep=tally.sleep,
            transitions=tally.transitions,
        )
        return self._finish(policy_name, counts, tally.idle_cycles)

    def evaluate_many(
        self,
        policies: Iterable[SleepPolicy],
        active_cycles: float,
        histogram: Union[IntervalHistogram, HistogramBatch],
        interval_sequence: Optional[Sequence[int]] = None,
        vectorized: bool = False,
    ) -> Dict[str, PolicyResult]:
        """Evaluate a policy suite; stateful ones need the ordered stream."""
        if vectorized:
            # Wrap once so the whole suite shares one batch (and its
            # per-policy totals memo), not a throwaway batch per policy.
            histogram = HistogramBatch.wrap(histogram)
        results: Dict[str, PolicyResult] = {}
        for policy in policies:
            # Defensive: stateful policies carry cross-interval state
            # (e.g. the EWMA prediction); reset before every walk so
            # back-to-back evaluations of the same policy object are
            # identical regardless of caller discipline. (The sequence
            # and scalar-histogram paths also reset internally; this
            # covers any future path that forgets.)
            policy.reset()
            if policy.stateless:
                result = self.evaluate_histogram(
                    policy, active_cycles, histogram, vectorized=vectorized
                )
            else:
                # An *empty* sequence next to a non-empty histogram means
                # the simulation ran with record_sequences=False — pricing
                # the policy against zero idle cycles would be silently
                # wrong, not merely approximate.
                if interval_sequence is None or (
                    len(interval_sequence) == 0 and len(histogram) > 0
                ):
                    raise ValueError(
                        f"policy {policy.name!r} is stateful and requires "
                        "the ordered interval_sequence (simulate with "
                        "record_sequences=True)"
                    )
                result = self.evaluate_sequence(
                    policy, active_cycles, interval_sequence
                )
            results[result.policy_name] = result
        return results

    def _finish(
        self, name: str, counts: CycleCounts, idle_cycles: float
    ) -> PolicyResult:
        total_cycles = counts.active + idle_cycles
        breakdown = relative_energy(self.params, self.alpha, counts)
        return PolicyResult(
            policy_name=name,
            counts=counts,
            breakdown=breakdown,
            total_cycles=total_cycles,
            baseline_energy=self.baseline_energy(total_cycles),
        )
