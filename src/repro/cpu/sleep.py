"""The closed-loop sleep-controller runtime for the functional-unit pool.

Open-loop evaluation (Figures 8-9) replays recorded idle histograms
through a policy after the fact, so the performance cost of sleeping is
assumed, not simulated. This module closes the loop: each unit of a
:class:`ControlledFunctionalUnitPool` carries its own online controller
(one per unit, built from a named policy), moves through the
active / uncontrolled-idle / asleep / waking power states, and is
unavailable to the acquire path until a triggered wakeup has paid the
technology's wakeup latency. Sleep decisions therefore feed back into
issue pressure, IPC, and the very idle intervals the policy sees next.

Accounting is by *energy-state cycle tallies*
(:class:`~repro.core.sleep_control.RuntimeTally`), not post-hoc
histogram walks — but the tallies are built from the same
:class:`~repro.core.policies.IntervalOutcome` values the open-loop
accountant uses, accumulated in the same order (sorted histogram walk
for stateless policies, time-ordered sequence walk for stateful ones).
The keystone guarantee, enforced by ``tests/test_closed_loop.py``: with
``wakeup_latency == 0`` the pipeline timing is untouched, the observed
intervals are identical to a sleep-oblivious run, and the tallies price
float-for-float identically to the open-loop histogram evaluation. A
nonzero latency then yields empirical (not assumed) slowdown numbers.

Because controllers react to acquire/release events and tallies
accumulate cycle by cycle, the closed loop needs no access to the trace
beyond the pipeline's forward fetch cursor: runs fed chunks of any size
are bit-identical here too, which the walk's chunk-size gate
(``tests/test_streaming.py``) asserts for closed-loop specs explicitly.

Modeling choices, kept deliberately simple and documented here:

* A failed acquire triggers a wakeup on the first free sleeping unit in
  round-robin order, but only when no other wakeup is already in flight
  — concurrent wake demand is serialized (slightly pessimistic).
* A woken unit stays awake until it is claimed once; the wait between
  wake completion and the claim is tallied as ``awake_wait`` and priced
  as uncontrolled idle, as are the ``waking`` cycles themselves.
* GradualSleep pays the full wakeup latency as soon as any slice is
  asleep (de-assertion clears the whole shift register at once);
  ``wakeup_free`` policies (NoOverhead, the break-even oracle) pre-wake
  and never stall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.parameters import TechnologyParameters, check_alpha
from repro.core.sleep_control import (
    POLICY_BUILDERS,
    PolicyController,
    RuntimeTally,
    build_controllers,
)
from repro.cpu.fu import FunctionalUnitPool, PowerState


def price_stateless_outcomes(policy, histogram, tally: RuntimeTally) -> None:
    """Fold a histogram's per-interval outcomes into ``tally``.

    The sorted-histogram walk of the open-loop scalar accountant: the
    policy is reset, then every (length, count) pair is priced in
    ascending length order and the outcome components accumulate into
    the tally. Shared by the walked pool's :meth:`finalize` and the
    batched kernel's statistics assembly so both paths run the exact
    same float accumulation.
    """
    policy.reset()
    for length, count in histogram:
        outcome = policy.on_interval(length)
        tally.uncontrolled_idle += outcome.uncontrolled_idle * count
        tally.sleep += outcome.sleep * count
        tally.transitions += outcome.transitions * count


@dataclass(frozen=True)
class SleepRuntimeSpec:
    """Everything that determines a closed-loop run's sleep behavior.

    Pure data (a frozen dataclass of primitives) so it canonicalizes
    into simulation cache keys: closed-loop results can never collide
    with sleep-oblivious ones, nor with runs under a different policy,
    technology point, activity factor, or wakeup latency.
    """

    policy: str
    leakage_factor_p: float = 0.5
    alpha: float = 0.5
    sleep_ratio_k: float = 0.001
    sleep_overhead: float = 0.01
    duty_cycle: float = 0.5
    wakeup_latency: int = 1

    def __post_init__(self) -> None:
        if self.policy not in POLICY_BUILDERS:
            known = ", ".join(sorted(POLICY_BUILDERS))
            raise ValueError(
                f"unknown sleep policy {self.policy!r}; known: {known}"
            )
        check_alpha(self.alpha)
        if self.wakeup_latency < 0:
            raise ValueError(
                f"wakeup latency must be >= 0, got {self.wakeup_latency}"
            )

    def technology(self) -> TechnologyParameters:
        return TechnologyParameters(
            leakage_factor_p=self.leakage_factor_p,
            sleep_ratio_k=self.sleep_ratio_k,
            sleep_overhead=self.sleep_overhead,
            duty_cycle=self.duty_cycle,
        )

    def build_pool(
        self, num_units: int, record_sequences: bool = True
    ) -> "ControlledFunctionalUnitPool":
        return ControlledFunctionalUnitPool(
            num_units,
            controllers=build_controllers(
                self.policy, self.technology(), self.alpha, num_units
            ),
            wakeup_latency=self.wakeup_latency,
            record_sequences=record_sequences,
        )


class ControlledFunctionalUnitPool(FunctionalUnitPool):
    """A functional-unit pool whose units sleep under online control.

    Inherits the round-robin allocator and interval bookkeeping; adds
    the asleep/waking power states, wakeup-latency mechanics, and
    per-unit :class:`RuntimeTally` accounting.
    """

    def __init__(
        self,
        num_units: int,
        controllers: List[PolicyController],
        wakeup_latency: int,
        record_sequences: bool = True,
    ):
        super().__init__(num_units, record_sequences=record_sequences)
        if len(controllers) != num_units:
            raise ValueError(
                f"need one controller per unit: {len(controllers)} != {num_units}"
            )
        if wakeup_latency < 0:
            raise ValueError(f"wakeup latency must be >= 0, got {wakeup_latency}")
        self.controllers = controllers
        self.wakeup_latency = wakeup_latency
        self.tallies = [RuntimeTally() for _ in range(num_units)]
        # Pending-wakeup state: a unit with _wake_ready[i] is waking
        # until that cycle, then awake-and-waiting until claimed.
        self._wake_ready: List[Optional[int]] = [None] * num_units
        self._wake_started = [0] * num_units
        # Measurement-window floor: wake spans are clamped to it so
        # warmup cycles never leak into measured tallies.
        self._floor = 0
        self._stateless = controllers[0].policy.stateless

    @property
    def policy_name(self) -> str:
        return self.controllers[0].policy.name

    # -- acquire path --------------------------------------------------------

    def acquire(self, cycle: int, duration: int) -> Optional[int]:
        """Claim a free *awake* unit; trigger a wakeup otherwise.

        A unit is immediately claimable when it is idle-awake (its
        controller has not put it to sleep), when a previously triggered
        wakeup has completed, when the wakeup latency is zero, or when
        the policy is ``wakeup_free``. Failing all that, the first free
        sleeping unit starts waking — it becomes claimable
        ``wakeup_latency`` cycles later — and the call returns None with
        :attr:`blocked_on_wakeup` set so the pipeline can attribute the
        stall.
        """
        if self._finalized:
            raise RuntimeError("pool already finalized")
        if duration < 1:
            raise ValueError(f"duration must be >= 1 cycle, got {duration}")
        self.blocked_on_wakeup = False
        n = self.num_units
        wake_in_flight = False
        sleeping_candidate = None
        for offset in range(n):
            unit = (self._rr_pointer + offset) % n
            if self._busy_until[unit] > cycle:
                continue
            ready = self._wake_ready[unit]
            if ready is not None:
                if ready <= cycle:
                    self._claim_woken(unit, cycle, duration, ready)
                    return unit
                wake_in_flight = True
                continue
            controller = self.controllers[unit]
            elapsed = cycle - self._last_busy_end[unit]
            if (
                self.wakeup_latency == 0
                or controller.wakeup_free
                or not controller.asleep_after(elapsed)
            ):
                self._claim_awake(unit, cycle, duration)
                return unit
            if sleeping_candidate is None:
                sleeping_candidate = unit
        if wake_in_flight:
            self.blocked_on_wakeup = True
        elif sleeping_candidate is not None:
            self._trigger_wake(sleeping_candidate, cycle)
            self.blocked_on_wakeup = True
        return None

    def _claim_awake(self, unit: int, cycle: int, duration: int) -> None:
        """Claim a unit that is idle (or asleep with free/zero wakeup)."""
        gap = cycle - self._last_busy_end[unit]
        if gap > 0:
            self._close_interval(unit, gap)
        self._start_busy(unit, cycle, duration)

    def _claim_woken(
        self, unit: int, cycle: int, duration: int, ready: int
    ) -> None:
        """Claim a unit whose pending wakeup has completed."""
        self.tallies[unit].waking += max(0, ready - self._wake_started[unit])
        self.tallies[unit].awake_wait += cycle - max(ready, self._floor)
        self._wake_ready[unit] = None
        self._start_busy(unit, cycle, duration)

    def _trigger_wake(self, unit: int, cycle: int) -> None:
        """Start waking a sleeping unit; closes its idle interval now."""
        gap = cycle - self._last_busy_end[unit]
        if gap > 0:
            self._close_interval(unit, gap)
        # Zero-length gap cannot happen here: asleep_after(0) is False,
        # so a just-freed unit is always claimed awake instead.
        self._wake_ready[unit] = cycle + self.wakeup_latency
        self._wake_started[unit] = cycle
        # The idle interval is closed; reset the idle origin so a later
        # reset_statistics cannot re-measure it.
        self._last_busy_end[unit] = cycle
        self.tallies[unit].wake_events += 1

    def _start_busy(self, unit: int, cycle: int, duration: int) -> None:
        self._busy_until[unit] = cycle + duration
        self._last_busy_end[unit] = cycle + duration
        self.busy_cycles[unit] += duration
        self.operations[unit] += 1
        self._rr_pointer = (unit + 1) % self.num_units

    def _close_interval(self, unit: int, length: int) -> None:
        """Record a completed idle interval and account its outcome.

        Stateless policies defer the outcome arithmetic to
        :meth:`finalize`, which walks the histogram in sorted order —
        the exact accumulation order of the open-loop scalar accountant.
        Stateful policies must observe intervals in time order (their
        state evolves), which is also exactly how the open-loop
        sequence walk replays them.
        """
        self.histograms[unit].add(length)
        if self.record_sequences:
            self.interval_sequences[unit].append(length)
        if not self._stateless:
            self.tallies[unit].add_outcome(
                length, self.controllers[unit].close_interval(length)
            )

    # -- lifecycle -----------------------------------------------------------

    def reset_statistics(self, cycle: int) -> None:
        """Warmup boundary: discard tallies and restart controller state.

        Controllers reset too, so the measured window prices exactly as
        an open-loop evaluation of the measured intervals with a fresh
        policy — the cross-validation contract.
        """
        super().reset_statistics(cycle)
        self.tallies = [RuntimeTally() for _ in range(self.num_units)]
        self._floor = cycle
        for unit, controller in enumerate(self.controllers):
            controller.reset()
            self._wake_started[unit] = max(self._wake_started[unit], cycle)

    def finalize(self, end_cycle: int) -> None:
        """Close trailing intervals / wake spans and settle the tallies."""
        if self._finalized:
            return
        for unit in range(self.num_units):
            ready = self._wake_ready[unit]
            if ready is not None:
                tally = self.tallies[unit]
                tally.waking += max(
                    0, min(ready, end_cycle) - self._wake_started[unit]
                )
                tally.awake_wait += max(0, end_cycle - max(ready, self._floor))
            else:
                gap = end_cycle - self._last_busy_end[unit]
                if gap > 0:
                    self._close_interval(unit, gap)
        if self._stateless:
            for unit, controller in enumerate(self.controllers):
                price_stateless_outcomes(
                    controller.policy, self.histograms[unit], self.tallies[unit]
                )
        for unit in range(self.num_units):
            self.tallies[unit].active = self.busy_cycles[unit]
            if self._stateless:
                self.tallies[unit].controlled_idle = self.histograms[
                    unit
                ].total_idle_cycles
        self._finalized = True

    # -- introspection -------------------------------------------------------

    def power_state(self, unit: int, cycle: int) -> PowerState:
        if self._busy_until[unit] > cycle:
            return PowerState.ACTIVE
        ready = self._wake_ready[unit]
        if ready is not None:
            return PowerState.WAKING if cycle < ready else PowerState.IDLE
        elapsed = cycle - self._last_busy_end[unit]
        controller = self.controllers[unit]
        if (
            self.wakeup_latency > 0
            and not controller.wakeup_free
            and controller.asleep_after(elapsed)
        ):
            return PowerState.ASLEEP
        return PowerState.IDLE

    def next_wake_ready(self) -> Optional[int]:
        pending = [ready for ready in self._wake_ready if ready is not None]
        return min(pending) if pending else None
