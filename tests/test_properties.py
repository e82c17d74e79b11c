"""Property-based tests on the core model invariants.

These encode the paper's structural claims as laws over the whole
parameter space rather than spot values:

* algebraic consistency between the energy formulations,
* policy dominance (NoOverhead is a true lower bound; the oracle is the
  per-interval optimum),
* break-even consistency (MaxSleep beats AlwaysActive exactly when the
  interval exceeds the break-even length),
* GradualSleep's cycle conservation and limiting behavior,
* cache/TLB structural invariants,
* predictor counter behavior.

Two generator styles coexist deliberately. The hypothesis-based classes
shrink failures and explore the space adaptively; the stdlib-``random``
classes at the bottom (``*Randomized``) use fixed seeds so every run —
including CI — replays the exact same cases, which is what the interval
/accounting/streaming invariants want from a regression suite: a
reproducible sample, not a fresh search.
"""

import dataclasses
import math
import random

from hypothesis import given
from hypothesis import strategies as st

import pytest

from repro.core.accounting import EnergyAccountant
from repro.core.breakeven import breakeven_interval
from repro.core.energy_model import CycleCounts, relative_energy
from repro.core.gradual import GradualSleepDesign
from repro.core.parameters import TechnologyParameters
from repro.core.policies import (
    AlwaysActivePolicy,
    BreakevenOraclePolicy,
    GradualSleepPolicy,
    MaxSleepPolicy,
    NoOverheadPolicy,
    PredictiveSleepPolicy,
    TimeoutSleepPolicy,
    run_policy_on_intervals,
)
from repro.core.vectorized import exact_weighted_sum
from repro.cpu import _trace_build
from repro.cpu._trace_build import trace_kernel_available
from repro.cpu.pipeline import Pipeline
from repro.cpu.stream import TraceChunk
from repro.cpu.trace import trace_digest
from repro.cpu.workloads import (
    _walk_trace,
    generate_trace,
    get_benchmark,
    iter_trace,
)
from repro.core.transition import (
    always_active_interval_energy,
    max_sleep_interval_energy,
)
from repro.cpu.branch import SaturatingCounterTable
from repro.cpu.caches import SetAssociativeCache
from repro.cpu.config import CacheConfig
from repro.cpu.fu import FunctionalUnitPool
from repro.util.intervals import IntervalHistogram, log2_bucket

# Strategy building blocks.
techs = st.builds(
    TechnologyParameters,
    leakage_factor_p=st.floats(0.01, 1.0),
    sleep_ratio_k=st.floats(0.0, 0.1),
    sleep_overhead=st.floats(0.0, 0.2),
    duty_cycle=st.floats(0.1, 1.0),
)
alphas = st.floats(0.0, 1.0)
interval_lists = st.lists(st.integers(1, 500), min_size=1, max_size=40)


class TestEnergyModelLaws:
    @given(techs, alphas, st.floats(0, 1e5), st.floats(0, 1e5), st.floats(0, 1e5))
    def test_total_is_sum_of_breakdown(self, params, alpha, active, uidle, sleep):
        counts = CycleCounts(
            active=active,
            uncontrolled_idle=uidle,
            sleep=sleep,
            transitions=min(active, sleep),
        )
        breakdown = relative_energy(params, alpha, counts)
        component_sum = (
            breakdown.dynamic
            + breakdown.active_leakage
            + breakdown.uncontrolled_idle_leakage
            + breakdown.sleep_leakage
            + breakdown.transition_dynamic
            + breakdown.transition_overhead
        )
        assert breakdown.total == pytest.approx(component_sum)
        assert breakdown.total >= 0

    @given(techs, alphas)
    def test_per_cycle_energy_ordering(self, params, alpha):
        """Sleep cycles never leak more than uncontrolled idle cycles,
        which never cost more than active cycles."""
        assert params.sleep_cycle_energy() <= params.uncontrolled_idle_energy(
            alpha
        ) + 1e-15
        assert (
            params.uncontrolled_idle_energy(alpha)
            <= params.active_cycle_energy(alpha) + 1e-15
        )

    @given(techs, alphas, st.floats(1, 1e4), st.floats(0.1, 10))
    def test_energy_scales_linearly(self, params, alpha, active, factor):
        counts = CycleCounts(active=active, uncontrolled_idle=active / 2)
        one = relative_energy(params, alpha, counts).total
        scaled = relative_energy(params, alpha, counts.scaled(factor)).total
        assert scaled == pytest.approx(one * factor, rel=1e-9)


class TestPolicyDominanceLaws:
    @given(techs, st.floats(0.0, 0.99), interval_lists)
    def test_no_overhead_is_global_lower_bound(self, params, alpha, intervals):
        accountant = EnergyAccountant(params, alpha)
        hist = IntervalHistogram()
        hist.extend(intervals)
        lower = accountant.evaluate_histogram(NoOverheadPolicy(), 10, hist)
        for policy in (
            MaxSleepPolicy(),
            AlwaysActivePolicy(),
            GradualSleepPolicy.for_technology(params, alpha),
            BreakevenOraclePolicy(params, alpha),
        ):
            result = accountant.evaluate_histogram(policy, 10, hist)
            assert result.total_energy >= lower.total_energy - 1e-9

    @given(techs, st.floats(0.0, 0.99), interval_lists)
    def test_oracle_is_per_interval_optimum(self, params, alpha, intervals):
        oracle = run_policy_on_intervals(
            BreakevenOraclePolicy(params, alpha), intervals, params, alpha, 0
        )
        best_possible = sum(
            min(
                max_sleep_interval_energy(params, alpha, L),
                always_active_interval_energy(params, alpha, L),
            )
            for L in intervals
        )
        assert oracle.total_energy == pytest.approx(best_possible, rel=1e-9)

    @given(techs, st.floats(0.0, 0.99), st.integers(1, 1000))
    def test_breakeven_separates_policies(self, params, alpha, interval):
        """MaxSleep beats AlwaysActive on an interval iff it is longer
        than the break-even length (equation 4)."""
        n_be = breakeven_interval(params, alpha)
        ms = max_sleep_interval_energy(params, alpha, interval)
        aa = always_active_interval_energy(params, alpha, interval)
        if interval > n_be + 1e-9:
            assert ms < aa + 1e-12
        elif interval < n_be - 1e-9:
            assert ms > aa - 1e-12


class TestGradualSleepLaws:
    @given(
        st.integers(1, 64),
        st.integers(1, 500),
        techs,
        st.floats(0.0, 1.0),
    )
    def test_cycle_conservation(self, slices, interval, params, alpha):
        policy = GradualSleepPolicy(GradualSleepDesign(num_slices=slices))
        outcome = policy.on_interval(interval)
        assert outcome.uncontrolled_idle + outcome.sleep == pytest.approx(
            float(interval)
        )
        assert 0.0 <= outcome.transitions <= 1.0

    @given(st.integers(1, 64), techs, st.floats(0.0, 0.99))
    def test_gradual_bounded_by_extremes_in_limit(self, slices, params, alpha):
        """For long intervals GradualSleep costs at least MaxSleep but at
        most AlwaysActive."""
        design = GradualSleepDesign(num_slices=slices)
        interval = slices * 50 + 100
        gradual = design.interval_energy(params, alpha, interval)
        ms = max_sleep_interval_energy(params, alpha, interval)
        aa = always_active_interval_energy(params, alpha, interval)
        assert gradual >= ms - 1e-9
        assert gradual <= aa + params.transition_energy(alpha) + 1e-9

    @given(techs, alphas, st.integers(1, 64), st.integers(0, 10_000))
    def test_policy_path_reproduces_design_closed_form_exactly(
        self, params, alpha, slices, draw
    ):
        """GradualSleepPolicy.on_interval priced by relative_energy must
        equal GradualSleepDesign.interval_energy with ``==`` — the two
        closed forms live in different files and must never drift."""
        design = GradualSleepDesign(num_slices=slices)
        interval = 1 + draw % (4 * slices)
        outcome = GradualSleepPolicy(design).on_interval(interval)
        counts = CycleCounts(
            active=0.0,
            uncontrolled_idle=outcome.uncontrolled_idle,
            sleep=outcome.sleep,
            transitions=outcome.transitions,
        )
        assert (
            relative_energy(params, alpha, counts).total
            == design.interval_energy(params, alpha, interval)
        )


class TestHistogramLaws:
    @given(interval_lists)
    def test_histogram_totals(self, intervals):
        hist = IntervalHistogram()
        hist.extend(intervals)
        assert hist.num_intervals == len(intervals)
        assert hist.total_idle_cycles == sum(intervals)
        assert sum(hist.bucketed_time().values()) == sum(intervals)

    @given(st.integers(1, 100000))
    def test_bucket_is_smallest_covering_power(self, interval):
        bucket = log2_bucket(interval)
        assert bucket >= min(interval, 8192)
        if bucket > 1 and interval <= 8192:
            assert bucket // 2 < interval


class TestStructuralLaws:
    @given(st.lists(st.integers(0, 2**20), min_size=1, max_size=200))
    def test_cache_occupancy_bounded(self, addresses):
        cache = SetAssociativeCache(
            CacheConfig(size_bytes=4096, ways=2, line_bytes=64, hit_latency=1)
        )
        for address in addresses:
            cache.lookup(address)
        for entry in cache._sets:
            assert len(entry) <= 2
        assert cache.misses <= cache.accesses

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_counter_stays_in_range(self, outcomes):
        table = SaturatingCounterTable(16)
        for taken in outcomes:
            table.update(5, taken)
            assert 0 <= table.counter(5) <= 3

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 3)),
            min_size=1,
            max_size=50,
        )
    )
    def test_fu_pool_conservation(self, claims):
        """However ops are scheduled, busy + idle == total per unit."""
        pool = FunctionalUnitPool(2)
        cycle = 0
        for gap, duration in claims:
            cycle += gap
            pool.acquire(cycle, duration)
            cycle += 1
        end = cycle + 10
        pool.finalize(end)
        for unit in range(2):
            idle = pool.histograms[unit].total_idle_cycles
            assert pool.busy_cycles[unit] + idle == end


# -- stdlib-random properties (fixed seeds: reproducible samples) --------------


def _random_histogram(rng: random.Random) -> IntervalHistogram:
    """A random exact-count histogram with a heavy-tailed length mix."""
    histogram = IntervalHistogram()
    for _ in range(rng.randint(1, 60)):
        length = rng.choice(
            (rng.randint(1, 8), rng.randint(1, 200), rng.randint(1, 5_000))
        )
        histogram.add(length, count=rng.randint(1, 20))
    return histogram


def _policy_suite(rng: random.Random):
    """Every policy class, with randomized parameterizations."""
    params = TechnologyParameters(leakage_factor_p=rng.uniform(0.01, 1.0))
    alpha = rng.uniform(0.0, 0.99)
    return [
        AlwaysActivePolicy(),
        MaxSleepPolicy(),
        NoOverheadPolicy(),
        GradualSleepPolicy(GradualSleepDesign(num_slices=rng.randint(1, 64))),
        BreakevenOraclePolicy(params, alpha),
        TimeoutSleepPolicy(timeout=rng.randint(0, 50)),
        PredictiveSleepPolicy(params, alpha, ewma_weight=rng.uniform(0.1, 1.0)),
    ]


class TestOutcomeConservationRandomized:
    """Every policy conserves cycles on every interval it is shown.

    ``uncontrolled_idle + sleep == interval`` for each interval of a
    random histogram, whatever the policy's state — the invariant both
    the open-loop accountant and the closed-loop tallies rest on.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_conservation_over_random_histograms(self, seed):
        rng = random.Random(1_000 + seed)
        histogram = _random_histogram(rng)
        for policy in _policy_suite(rng):
            policy.reset()
            for length, count in histogram:
                for _ in range(count):
                    outcome = policy.on_interval(length)
                    assert outcome.uncontrolled_idle + outcome.sleep == (
                        pytest.approx(float(length), abs=1e-9)
                    ), (policy.name, length)
                    assert 0.0 <= outcome.transitions <= 1.0, policy.name


class TestExactWeightedSumRandomized:
    """``exact_weighted_sum`` really is the scalar loop, and its value
    stays within float rounding of the exactly-rounded ``math.fsum``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scalar_left_fold_bitwise(self, seed):
        rng = random.Random(2_000 + seed)
        size = rng.randint(0, 400)
        values = [rng.uniform(0.0, 1e6) for _ in range(size)]
        counts = [float(rng.randint(1, 1_000)) for _ in range(size)]
        scalar = 0.0
        for value, count in zip(values, counts):
            scalar += value * count
        assert exact_weighted_sum(values, counts) == scalar

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_fsum(self, seed):
        rng = random.Random(3_000 + seed)
        size = rng.randint(1, 400)
        values = [rng.uniform(0.0, 1e9) for _ in range(size)]
        counts = [float(rng.randint(1, 10_000)) for _ in range(size)]
        exact = math.fsum(value * count for value, count in zip(values, counts))
        assert exact_weighted_sum(values, counts) == pytest.approx(
            exact, rel=1e-12
        )


class TestChunkBoundaryInvarianceRandomized:
    """Where chunk boundaries fall can never change the stream.

    For random profiles, lengths, and chunk sizes: the chunked iterator
    flattens to exactly the materialized trace, chunks tile the index
    space contiguously, and the walk reading those chunks simulates
    ``==`` to the walk reading the whole trace as one chunk.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_random_chunk_sizes_flatten_identically(self, seed):
        rng = random.Random(4_000 + seed)
        profile = get_benchmark(
            rng.choice(["gzip", "mcf", "gcc", "health", "mst"])
        )
        length = rng.randint(200, 4_000)
        trace_seed = rng.randint(1, 10_000)
        reference = generate_trace(profile, length, seed=trace_seed)
        chunk_size = rng.randint(64, 2_048)
        chunks = list(
            iter_trace(profile, length, seed=trace_seed, chunk_size=chunk_size)
        )
        assert [chunk.start for chunk in chunks] == list(
            range(0, length, chunk_size)
        )
        assert chunks[-1].end == length
        assert all(len(chunk) == chunk_size for chunk in chunks[:-1])
        flat = [instr for chunk in chunks for instr in chunk.instructions]
        assert flat == reference

        chunked = Pipeline(iter(chunks), length).run()
        assert chunked == Pipeline([TraceChunk(0, reference)], length).run()


class TestColumnarDigestRandomized:
    """The compiled trace walker mirrors the reference walk draw for draw.

    For random profiles (every generation knob perturbed across its
    legal range) and random chunk sizes: the column-backed chunk stream
    out of :func:`iter_trace` is *digest-identical* to the
    per-instruction reference walk — same integers in every field of
    every slot, not merely the same simulation results. This is the
    randomized flank of the fixed-case gate in ``test_columnar.py``:
    profiles the seed benchmarks never visit (extreme dependency
    distances, store-heavy mixes, degenerate loop structure) must
    replay the same RNG draw order through both implementations.
    """

    @staticmethod
    def _random_profile(rng: random.Random):
        base = get_benchmark(
            rng.choice(["gzip", "mcf", "gcc", "health", "vortex"])
        )
        return dataclasses.replace(
            base,
            name=f"columnar-prop-{rng.randint(0, 10**9)}",
            frac_load=rng.uniform(0.05, 0.35),
            frac_store=rng.uniform(0.0, 0.15),
            frac_int_mult=rng.uniform(0.0, 0.12),
            mean_block_size=rng.uniform(3.0, 12.0),
            loop_branch_fraction=rng.uniform(0.0, 0.8),
            mean_loop_trips=rng.uniform(1.0, 30.0),
            mean_dep_distance=rng.uniform(1.0, 16.0),
            load_chain_prob=rng.uniform(0.0, 0.8),
            stack_prob=rng.uniform(0.0, 0.4),
            stream_prob=rng.uniform(0.0, 0.5),
            heap_hot_prob=rng.uniform(0.5, 1.0),
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_random_profiles_digest_identical(self, seed):
        rng = random.Random(7_000 + seed)
        profile = self._random_profile(rng)
        length = rng.randint(500, 6_000)
        trace_seed = rng.randint(1, 10_000)
        chunk_size = rng.randint(64, 4_096)
        reference = list(_walk_trace(profile, length, trace_seed))
        chunks = list(
            iter_trace(profile, length, seed=trace_seed, chunk_size=chunk_size)
        )
        if trace_kernel_available():
            assert all(chunk.is_columnar for chunk in chunks)
        columnar = [
            instr for chunk in chunks for instr in chunk.instructions
        ]
        assert trace_digest(columnar) == trace_digest(reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_fallback_matches_c_walker_on_random_profiles(
        self, seed, monkeypatch
    ):
        """Engine dispatch can never change the stream or where it is
        cut: the same random profile and chunk size give one digest and
        one set of chunk boundaries with the compiled walker and with the
        reference-walk fallback (a no-op comparison where no compiler
        exists, since both runs then use the fallback)."""
        rng = random.Random(9_100 + seed)
        profile = self._random_profile(rng)
        length = rng.randint(500, 5_000)
        trace_seed = rng.randint(1, 10_000)
        chunk_size = rng.randint(64, 2_048)

        def run():
            chunks = list(
                iter_trace(
                    profile, length, seed=trace_seed, chunk_size=chunk_size
                )
            )
            bounds = [(chunk.start, chunk.end) for chunk in chunks]
            flat = [instr for chunk in chunks for instr in chunk.instructions]
            return bounds, trace_digest(flat)

        native = run()
        monkeypatch.setattr(
            _trace_build, "trace_kernel_available", lambda: False
        )
        assert run() == native
