"""Event-driven sleep-mode controllers.

Each policy decides, for every idle interval a functional unit
experiences, how the interval's cycles are spent: left uncontrolled
(clock-gated only), asleep, or — for GradualSleep — a per-slice mixture.
The decision is expressed as an :class:`IntervalOutcome` in *unit-cycles*
(fractions allowed), which the accounting layer converts to energy.

The paper's three boundary policies (AlwaysActive, MaxSleep, NoOverhead)
and the proposed GradualSleep are stateless per interval. Two additional
controllers implement the "more complex control strategy" the paper
argues is unnecessary, so the claim can be tested:

* :class:`PredictiveSleepPolicy` — predicts the next idle length with an
  exponentially-weighted moving average and sleeps only when the
  prediction exceeds the break-even interval,
* :class:`TimeoutSleepPolicy` — waits out a fixed number of uncontrolled
  cycles before committing to sleep (decay-style hysteresis).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.breakeven import breakeven_interval
from repro.core.energy_model import CycleCounts, EnergyBreakdown, relative_energy
from repro.core.gradual import GradualSleepDesign
from repro.core.parameters import TechnologyParameters, check_alpha


@dataclass(frozen=True)
class IntervalOutcome:
    """How one idle interval was spent, in unit-cycles.

    ``transitions`` is the fraction of a full sleep transition paid
    (GradualSleep pays ``m/n`` when only ``m`` of ``n`` slices slept).
    """

    uncontrolled_idle: float
    sleep: float
    transitions: float

    def __post_init__(self) -> None:
        if self.uncontrolled_idle < 0 or self.sleep < 0 or self.transitions < 0:
            raise ValueError("interval outcome components must be non-negative")


class SleepPolicy(ABC):
    """Base class: maps idle intervals to outcomes, possibly statefully."""

    #: Display name used in experiment tables.
    name: str = "SleepPolicy"

    #: Stateless policies produce identical outcomes for identical interval
    #: lengths, enabling histogram-based (rather than sequence-based)
    #: accounting.
    stateless: bool = True

    #: Unachievable reference policies (NoOverhead, the break-even oracle)
    #: are assumed to pre-wake the unit in closed-loop simulation: they
    #: never stall an acquire on the wakeup latency.
    wakeup_free: bool = False

    def reset(self) -> None:
        """Clear any cross-interval state (default: none)."""

    @abstractmethod
    def on_interval(self, interval: int) -> IntervalOutcome:
        """Decide how an idle interval of ``interval`` cycles is spent."""

    def sleeps_at(self, elapsed: int) -> bool:
        """Online schedule: is the unit asleep after ``elapsed`` idle cycles?

        Queried by the closed-loop runtime mid-interval (``elapsed`` >= 1,
        the true interval length still unknown); the answer decides
        whether an acquire must pay the wakeup latency. It must agree
        with :meth:`on_interval`'s accounting: the unit is asleep at the
        end of an interval of length ``L`` iff ``on_interval(L)`` bills a
        nonzero trailing sleep span. The conservative default — never
        asleep — is correct for any policy that only clock-gates.
        """
        return False

    def online_sleep_threshold(self) -> Optional[int]:
        """The :meth:`sleeps_at` schedule reduced to one integer, or None.

        Every policy's online schedule is a monotone step function of
        the elapsed idle time: awake below some threshold, asleep at and
        above it (never asleep = ``None``). This method returns that
        threshold so the batched kernel can drive the closed-loop
        acquire path with a single integer comparison instead of a
        per-query Python call; the contract —
        ``sleeps_at(e) == (threshold is not None and e >= threshold)``
        for every ``e >= 1`` — is asserted policy-by-policy in the test
        suite. Stateful policies may return a different value after each
        :meth:`on_interval` / :meth:`reset` (the kernel re-queries via
        its interval-close callback); the schedule between two closes is
        still one step. The conservative default matches the
        never-asleep default of :meth:`sleeps_at`.
        """
        return None

    def outcomes_for_lengths(
        self, lengths: Sequence[float]
    ) -> Tuple[List[float], List[float], List[float]]:
        """Batched :meth:`on_interval`: per-length outcome components.

        ``lengths`` is a sequence of float idle-interval lengths (each
        >= 1); returns aligned ``(uncontrolled_idle, sleep, transitions)``
        float lists. Every stateless policy overrides this with a closed
        form whose per-element arithmetic is float-for-float identical
        to the scalar path; this default walks :meth:`on_interval` so any
        new stateless policy is batch-evaluable out of the box. Stateful
        policies have no per-length closed form and are rejected.
        """
        if not self.stateless:
            raise ValueError(
                f"policy {self.name!r} is stateful; batched outcomes are "
                "undefined (use run_policy_on_intervals)"
            )
        outcomes = [self.on_interval(int(length)) for length in lengths]
        return (
            [float(outcome.uncontrolled_idle) for outcome in outcomes],
            [float(outcome.sleep) for outcome in outcomes],
            [float(outcome.transitions) for outcome in outcomes],
        )

    def outcome_key(self) -> Optional[Tuple]:
        """Canonical signature of the interval -> outcome map, or ``None``.

        Two policies with equal keys produce identical outcomes for every
        interval length, so batched outcome totals can be memoized per
        (key, histogram) across a sweep grid. ``None`` (the default)
        disables memoization.
        """
        return None

    def _check_interval(self, interval: int) -> None:
        if interval < 1:
            raise ValueError(f"idle interval must be >= 1 cycle, got {interval}")


class AlwaysActivePolicy(SleepPolicy):
    """Never assert Sleep; all idle cycles are clock-gated only."""

    name = "AlwaysActive"

    def on_interval(self, interval: int) -> IntervalOutcome:
        self._check_interval(interval)
        return IntervalOutcome(
            uncontrolled_idle=float(interval), sleep=0.0, transitions=0.0
        )

    def outcomes_for_lengths(self, lengths):
        return list(lengths), [0.0] * len(lengths), [0.0] * len(lengths)

    def outcome_key(self):
        return ("AlwaysActive",)

    def sleeps_at(self, elapsed: int) -> bool:
        return False

    def online_sleep_threshold(self) -> Optional[int]:
        return None


class MaxSleepPolicy(SleepPolicy):
    """Assert Sleep on every idle opportunity, however short."""

    name = "MaxSleep"

    def on_interval(self, interval: int) -> IntervalOutcome:
        self._check_interval(interval)
        return IntervalOutcome(
            uncontrolled_idle=0.0, sleep=float(interval), transitions=1.0
        )

    def outcomes_for_lengths(self, lengths):
        return [0.0] * len(lengths), list(lengths), [1.0] * len(lengths)

    def outcome_key(self):
        return ("MaxSleep",)

    def sleeps_at(self, elapsed: int) -> bool:
        return True

    def online_sleep_threshold(self) -> Optional[int]:
        return 1


class NoOverheadPolicy(SleepPolicy):
    """MaxSleep with free transitions: the unachievable lower bound.

    Its closed-loop counterpart is equally ideal: transitions are free in
    both directions, so it never stalls an acquire (``wakeup_free``).
    """

    name = "NoOverhead"
    wakeup_free = True

    def on_interval(self, interval: int) -> IntervalOutcome:
        self._check_interval(interval)
        return IntervalOutcome(
            uncontrolled_idle=0.0, sleep=float(interval), transitions=0.0
        )

    def outcomes_for_lengths(self, lengths):
        return [0.0] * len(lengths), list(lengths), [0.0] * len(lengths)

    def outcome_key(self):
        return ("NoOverhead",)

    def sleeps_at(self, elapsed: int) -> bool:
        return True

    def online_sleep_threshold(self) -> Optional[int]:
        return 1


class GradualSleepPolicy(SleepPolicy):
    """The sliced shift-register design of Section 3.2."""

    def __init__(self, design: GradualSleepDesign):
        self.design = design
        self.name = f"GradualSleep(n={design.num_slices})"

    @classmethod
    def for_technology(
        cls, params: TechnologyParameters, alpha: float
    ) -> "GradualSleepPolicy":
        """Slice count matched to the break-even interval, as in the paper."""
        return cls(GradualSleepDesign.for_technology(params, alpha))

    def on_interval(self, interval: int) -> IntervalOutcome:
        self._check_interval(interval)
        n = float(self.design.num_slices)
        asleep = self.design.interval_sleep_slice_cycles(interval) / n
        return IntervalOutcome(
            uncontrolled_idle=float(interval) - asleep,
            sleep=asleep,
            transitions=self.design.slices_transitioned(interval) / n,
        )

    def outcomes_for_lengths(self, lengths):
        # Mirrors interval_sleep_slice_cycles/slices_transitioned with
        # the branch expressed as min(L, n): for L <= n the extra
        # ``n * (L - m)`` term is exactly 0.0, so the per-element floats
        # are identical to the scalar branch.
        n = float(self.design.num_slices)
        uncontrolled, sleep, transitions = [], [], []
        for length in lengths:
            ramp = min(length, n)
            asleep = (ramp * (ramp + 1.0) / 2.0 + n * (length - ramp)) / n
            uncontrolled.append(length - asleep)
            sleep.append(asleep)
            transitions.append(ramp / n)
        return uncontrolled, sleep, transitions

    def outcome_key(self):
        return ("GradualSleep", self.design.num_slices)

    def sleeps_at(self, elapsed: int) -> bool:
        # The shift register puts the first slice to sleep on the first
        # idle cycle; waking any asleep slice requires the full Sleep
        # de-assertion, so the unit stalls an acquire from then on.
        return True

    def online_sleep_threshold(self) -> Optional[int]:
        return 1


class BreakevenOraclePolicy(SleepPolicy):
    """Knows each interval's length in advance; sleeps iff it pays.

    This is the per-interval optimum over {sleep fully, stay awake}: the
    ``min(E_MaxSleep, E_AlwaysActive)`` combination Section 3.2 names as
    the best blend of the two boundary policies.

    In closed-loop simulation the same prescience lets it pre-wake the
    unit exactly in time for the next operation (``wakeup_free``): the
    oracle is a pure energy bound and never pays a performance penalty.
    """

    wakeup_free = True

    def __init__(self, params: TechnologyParameters, alpha: float):
        check_alpha(alpha)
        self.threshold = breakeven_interval(params, alpha)
        self.name = "BreakevenOracle"

    def on_interval(self, interval: int) -> IntervalOutcome:
        self._check_interval(interval)
        if interval > self.threshold:
            return IntervalOutcome(
                uncontrolled_idle=0.0, sleep=float(interval), transitions=1.0
            )
        return IntervalOutcome(
            uncontrolled_idle=float(interval), sleep=0.0, transitions=0.0
        )

    def outcomes_for_lengths(self, lengths):
        threshold = self.threshold
        return (
            [0.0 if length > threshold else length for length in lengths],
            [length if length > threshold else 0.0 for length in lengths],
            [1.0 if length > threshold else 0.0 for length in lengths],
        )

    def outcome_key(self):
        return ("BreakevenOracle", self.threshold)

    def sleeps_at(self, elapsed: int) -> bool:
        # Consistent with on_interval once the elapsed time itself
        # exceeds the threshold; moot for stalls since the oracle
        # pre-wakes (wakeup_free).
        return elapsed > self.threshold

    def online_sleep_threshold(self) -> Optional[int]:
        # ``elapsed > threshold`` over integer elapsed is
        # ``elapsed >= floor(threshold) + 1``.
        if math.isinf(self.threshold):
            return None
        return max(1, math.floor(self.threshold) + 1)


class PredictiveSleepPolicy(SleepPolicy):
    """EWMA idle-length predictor; sleeps when the prediction pays.

    State: ``prediction`` of the next idle interval's length, updated as
    ``(1 - w) * prediction + w * observed`` after every interval. The unit
    sleeps for the whole interval when the prediction exceeds the
    break-even threshold, otherwise stays in uncontrolled idle — the
    decision must be made at idle onset, before the true length is known.
    """

    stateless = False

    def __init__(
        self,
        params: TechnologyParameters,
        alpha: float,
        ewma_weight: float = 0.5,
        initial_prediction: float = 0.0,
    ):
        check_alpha(alpha)
        if not 0.0 < ewma_weight <= 1.0:
            raise ValueError(f"ewma weight must be in (0, 1], got {ewma_weight}")
        if initial_prediction < 0.0:
            raise ValueError("initial prediction must be non-negative")
        self.threshold = breakeven_interval(params, alpha)
        self.ewma_weight = ewma_weight
        self.initial_prediction = initial_prediction
        self.prediction = initial_prediction
        self.name = f"PredictiveSleep(w={ewma_weight})"

    def reset(self) -> None:
        self.prediction = self.initial_prediction

    def on_interval(self, interval: int) -> IntervalOutcome:
        self._check_interval(interval)
        sleep_now = self.prediction > self.threshold
        self.prediction = (
            1.0 - self.ewma_weight
        ) * self.prediction + self.ewma_weight * interval
        if sleep_now:
            return IntervalOutcome(
                uncontrolled_idle=0.0, sleep=float(interval), transitions=1.0
            )
        return IntervalOutcome(
            uncontrolled_idle=float(interval), sleep=0.0, transitions=0.0
        )

    def sleeps_at(self, elapsed: int) -> bool:
        # The decision is made at idle onset from the prediction; the
        # prediction is only updated when the interval closes
        # (on_interval), so mid-interval queries see the onset decision.
        return self.prediction > self.threshold

    def online_sleep_threshold(self) -> Optional[int]:
        # Constant in elapsed but state-dependent: asleep from onset
        # when the current prediction pays, else never.
        return 1 if self.prediction > self.threshold else None


class TimeoutSleepPolicy(SleepPolicy):
    """Wait ``timeout`` uncontrolled cycles, then sleep for the remainder.

    The cache-decay-style controller: it avoids paying the transition on
    short intervals at the cost of leaking through every interval's first
    ``timeout`` cycles.
    """

    def __init__(self, timeout: int):
        if timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {timeout}")
        self.timeout = timeout
        self.name = f"TimeoutSleep(t={timeout})"

    def on_interval(self, interval: int) -> IntervalOutcome:
        self._check_interval(interval)
        if interval <= self.timeout:
            return IntervalOutcome(
                uncontrolled_idle=float(interval), sleep=0.0, transitions=0.0
            )
        return IntervalOutcome(
            uncontrolled_idle=float(self.timeout),
            sleep=float(interval - self.timeout),
            transitions=1.0,
        )

    def outcomes_for_lengths(self, lengths):
        timeout = float(self.timeout)
        return (
            [timeout if length > timeout else length for length in lengths],
            [length - timeout if length > timeout else 0.0 for length in lengths],
            [1.0 if length > timeout else 0.0 for length in lengths],
        )

    def outcome_key(self):
        return ("TimeoutSleep", self.timeout)

    def sleeps_at(self, elapsed: int) -> bool:
        return elapsed > self.timeout

    def online_sleep_threshold(self) -> Optional[int]:
        return self.timeout + 1


@dataclass(frozen=True)
class PolicyRunResult:
    """Cycle taxonomy and energy of one policy over one interval stream."""

    policy_name: str
    counts: CycleCounts
    breakdown: EnergyBreakdown

    @property
    def total_energy(self) -> float:
        return self.breakdown.total


def run_policy_on_intervals(
    policy: SleepPolicy,
    intervals: Iterable[int],
    params: TechnologyParameters,
    alpha: float,
    active_cycles: float,
) -> PolicyRunResult:
    """Drive a policy over an ordered interval stream and account energy.

    Works for stateful policies; resets the policy first so repeated runs
    are reproducible.
    """
    check_alpha(alpha)
    if active_cycles < 0:
        raise ValueError(f"active cycles must be >= 0, got {active_cycles}")
    policy.reset()
    uncontrolled = 0.0
    sleep = 0.0
    transitions = 0.0
    for interval in intervals:
        outcome = policy.on_interval(interval)
        uncontrolled += outcome.uncontrolled_idle
        sleep += outcome.sleep
        transitions += outcome.transitions
    counts = CycleCounts(
        active=active_cycles,
        uncontrolled_idle=uncontrolled,
        sleep=sleep,
        transitions=transitions,
    )
    return PolicyRunResult(
        policy_name=policy.name,
        counts=counts,
        breakdown=relative_energy(params, alpha, counts),
    )


def paper_policy_suite(
    params: TechnologyParameters, alpha: float
) -> List[SleepPolicy]:
    """The four policies of Figures 8-9, in the paper's bar order."""
    return [
        MaxSleepPolicy(),
        GradualSleepPolicy.for_technology(params, alpha),
        AlwaysActivePolicy(),
        NoOverheadPolicy(),
    ]
