"""The kernel-equivalence gate (CI) plus batch-kernel machinery units.

The keystone contract of the array-batched pipeline kernel: a batch run
reproduces the walked reference *float-for-float* (``==``, not approx) —
same cycle counts, same idle histograms, same sleep-controller tallies,
same stall attribution — for every seed benchmark and for sampled
scenarios, open- and closed-loop, across chunk sizes. This is what
licenses the kernel knob's absence from the simulation cache keys: the
two engines must be observationally identical, so they may share cache
entries.

The unit half covers the machinery itself: chunk-boundary edge cases
(size-1 chunks, a single full-trace chunk, warmup and redirects landing
on boundaries), the per-policy online-sleep-threshold contract the
engine's acquire path relies on, the 2^31 cycle-count overflow
regression, knob resolution, and error parity with the walk: both
kernels read their trace through one chunk-stream check, so a bad
stream fails the same way on either.

Everything that runs the batch kernel skips when no C compiler is
available — the batch kernel then simply cannot exist, and the walk is
unaffected; the walk's side of the parity tests still runs. CI runs
the module on a runner with ``cc``, so the gate cannot silently skip
there.
"""

import dataclasses
import re

import pytest

from repro.core.sleep_control import POLICY_BUILDERS, build_policy
from repro.core.parameters import TechnologyParameters
from repro.cpu import kernel as kernel_mod
from repro.cpu.config import MachineConfig
from repro.cpu.isa import OpClass
from repro.cpu.kernel import (
    KERNEL_BATCH,
    KERNEL_WALK,
    BatchPipeline,
    batch_kernel_available,
    check_kernel,
    resolve_kernel,
    set_default_kernel,
)
from repro.cpu.pipeline import DeadlockError, Pipeline
from repro.cpu.simulator import Simulator, simulate_workload
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.stream import TraceChunk, chunk_instructions
from repro.cpu.trace import TraceInstruction
from repro.cpu.workloads import benchmark_names, generate_trace, get_benchmark
from repro.exec.jobs import SimulationJob
from repro.obs import metrics as obs_metrics
from repro.scenarios import sample_scenarios

needs_batch = pytest.mark.skipif(
    not batch_kernel_available(),
    reason="no C compiler: the batch kernel cannot be built",
)

#: Both kernels, the batch one only where it builds.
BOTH_KERNELS = [
    pytest.param(KERNEL_WALK, id=KERNEL_WALK),
    pytest.param(KERNEL_BATCH, id=KERNEL_BATCH, marks=needs_batch),
]

#: The kernel classes behind the knob's names.
ENGINES = {KERNEL_WALK: Pipeline, KERNEL_BATCH: BatchPipeline}

#: Chunk sizes spanning the degenerate, the awkward, and the typical.
CHUNK_SIZES = (1, 7, 1_024)

#: Closed-loop runtime with a nonzero wakeup latency so sleep decisions
#: really feed back into timing (wakeup stalls, delayed issue).
CLOSED_LOOP = SleepRuntimeSpec(policy="MaxSleep", wakeup_latency=2)


@pytest.fixture(autouse=True)
def _reset_kernel_default():
    """Tests may set the process-wide kernel; always restore automatic."""
    yield
    set_default_kernel(None)


def _walk(trace, sleep=None, warmup=0, config=None):
    trace = list(trace)
    return Pipeline(
        [TraceChunk(0, trace)], len(trace), config=config, sleep_spec=sleep
    ).run(warmup_instructions=warmup)


def _batch(trace, chunk_size, sleep=None, warmup=0, config=None):
    trace = list(trace)
    return BatchPipeline(
        chunk_instructions(trace, chunk_size),
        len(trace),
        config=config,
        sleep_spec=sleep,
    ).run(warmup_instructions=warmup)


@needs_batch
class TestEquivalenceGate:
    """Batch == walk, ``==`` exact, across the whole modeled space."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_all_benchmarks_open_loop(self, name):
        trace = list(generate_trace(get_benchmark(name), 6_000, seed=7))
        reference = _walk(trace, warmup=1_000)
        assert _batch(trace, 1_024, warmup=1_000) == reference

    @pytest.mark.parametrize("name", benchmark_names())
    def test_all_benchmarks_closed_loop(self, name):
        trace = list(generate_trace(get_benchmark(name), 5_000, seed=3))
        reference = _walk(trace, sleep=CLOSED_LOOP, warmup=500)
        assert _batch(trace, 512, sleep=CLOSED_LOOP, warmup=500) == reference

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_chunk_size_invariance(self, chunk_size):
        trace = list(generate_trace(get_benchmark("gcc"), 4_000, seed=11))
        assert _batch(trace, chunk_size) == _walk(trace)

    @pytest.mark.parametrize("policy", sorted(POLICY_BUILDERS))
    @pytest.mark.parametrize("wakeup_latency", (0, 1, 5))
    def test_every_policy_and_wakeup_latency(self, policy, wakeup_latency):
        spec = SleepRuntimeSpec(policy=policy, wakeup_latency=wakeup_latency)
        trace = list(generate_trace(get_benchmark("mcf"), 4_000, seed=5))
        reference = _walk(trace, sleep=spec, warmup=400)
        assert _batch(trace, 777, sleep=spec, warmup=400) == reference

    def test_sampled_scenarios(self):
        for scenario in sample_scenarios(4, seed=17):
            trace = list(generate_trace(scenario.profile, 4_000, seed=2))
            assert _batch(trace, 640) == _walk(trace)
            reference = _walk(trace, sleep=CLOSED_LOOP)
            assert _batch(trace, 640, sleep=CLOSED_LOOP) == reference

    def test_record_sequences_off_matches(self):
        trace = list(generate_trace(get_benchmark("vpr"), 3_000, seed=9))
        reference = Pipeline(
            [TraceChunk(0, trace)], len(trace), record_sequences=False
        ).run()
        batch = BatchPipeline(
            chunk_instructions(trace, 500), len(trace), record_sequences=False
        ).run()
        assert batch == reference
        assert all(not u.idle_intervals for u in batch.fu_usage)

    def test_simulator_facade_batch_equals_walk(self):
        profile = get_benchmark("twolf")
        walk = simulate_workload(
            profile, 3_000, seed=4, use_cache=False, kernel=KERNEL_WALK
        )
        batch = simulate_workload(
            profile, 3_000, seed=4, use_cache=False, kernel=KERNEL_BATCH
        )
        assert batch.stats == walk.stats


@needs_batch
class TestChunkBoundaryEdges:
    """Boundary placement can never matter — by construction, and here."""

    def test_single_full_trace_chunk(self):
        trace = list(generate_trace(get_benchmark("gzip"), 3_000, seed=1))
        assert _batch(trace, len(trace)) == _walk(trace)

    def test_chunk_size_one(self):
        """Every instruction delivery is a boundary; every pause between
        cycles — including cycles where a wakeup completes — must be
        state-neutral for this to pass closed-loop."""
        trace = list(generate_trace(get_benchmark("health"), 600, seed=8))
        assert _batch(trace, 1) == _walk(trace)
        reference = _walk(trace, sleep=CLOSED_LOOP)
        assert _batch(trace, 1, sleep=CLOSED_LOOP) == reference

    def test_warmup_spanning_chunk_boundary(self):
        """Warmup ends mid-chunk, at a boundary, and one past it."""
        trace = list(generate_trace(get_benchmark("parser"), 2_000, seed=6))
        for warmup in (499, 500, 501):
            reference = _walk(trace, warmup=warmup)
            assert _batch(trace, 500, warmup=warmup) == reference

    def test_mispredict_redirect_on_last_slot_of_chunk(self):
        """Chunks cut immediately after control instructions, so redirects
        (and their fetch stalls) land exactly on delivery boundaries."""
        trace = list(generate_trace(get_benchmark("gcc"), 1_500, seed=13))
        control = {OpClass.BRANCH, OpClass.CALL, OpClass.RETURN}
        boundary = next(
            i for i, ins in enumerate(trace) if ins.op in control and i > 0
        )
        reference = _walk(trace)
        assert _batch(trace, boundary + 1) == reference
        taken = next(
            i
            for i, ins in enumerate(trace)
            if ins.op == OpClass.BRANCH and ins.taken
        )
        assert _batch(trace, taken + 1) == reference

    def test_wakeup_completing_at_boundary_cycles(self):
        """Sweep chunk sizes under a long wakeup latency: some boundary
        pause then coincides with a wakeup-completion cycle."""
        trace = list(generate_trace(get_benchmark("mst"), 900, seed=21))
        spec = SleepRuntimeSpec(policy="MaxSleep", wakeup_latency=7)
        reference = _walk(trace, sleep=spec)
        for chunk_size in (1, 2, 3, 64, 899):
            assert _batch(trace, chunk_size, sleep=spec) == reference


@needs_batch
class TestOnlineThresholdContract:
    """`online_sleep_threshold` must reproduce `sleeps_at` exactly — the
    engine's acquire path substitutes the comparison for the call."""

    @pytest.mark.parametrize("name", sorted(POLICY_BUILDERS))
    @pytest.mark.parametrize("p", (0.05, 0.5, 1.0))
    def test_threshold_matches_schedule(self, name, p):
        policy = build_policy(name, TechnologyParameters(p), alpha=0.5)
        policy.reset()
        threshold = policy.online_sleep_threshold()
        for elapsed in range(1, 200):
            expected = threshold is not None and elapsed >= threshold
            assert policy.sleeps_at(elapsed) == expected, (name, elapsed)

    def test_predictive_threshold_tracks_state(self):
        policy = build_policy(
            "PredictiveSleep", TechnologyParameters(0.5), alpha=0.5
        )
        policy.reset()
        for length in (1, 3, 200, 2, 400, 1):
            policy.on_interval(length)
            threshold = policy.online_sleep_threshold()
            for elapsed in range(1, 50):
                expected = threshold is not None and elapsed >= threshold
                assert policy.sleeps_at(elapsed) == expected, (length, elapsed)


@needs_batch
class TestOverflowRegression:
    """int64 accumulators: cycle counts past 2^31 stay exact."""

    def test_cycle_count_past_2_31(self):
        # A serialized chain of dependent loads with a ~2^31-cycle memory
        # latency pushes total_cycles far past the int32 boundary while
        # the event-skip loop keeps both engines fast.
        latency = 2**31
        config = MachineConfig(memory_latency=latency)
        trace = [
            TraceInstruction(
                op=OpClass.LOAD, pc=4 * i, dep1=1, address=1 << 40
            )
            for i in range(3)
        ]
        max_cycles = 2**40
        reference = Pipeline(
            [TraceChunk(0, trace)], len(trace), config=config
        ).run(max_cycles=max_cycles)
        batch = BatchPipeline(
            chunk_instructions(trace, 2), len(trace), config=config
        ).run(max_cycles=max_cycles)
        assert batch == reference
        assert batch.total_cycles > 2**31


@needs_batch
class TestKernelKnob:
    """Resolution rules, cache-key exclusion, and worker stamping."""

    def test_check_and_resolve(self, monkeypatch):
        assert check_kernel("walk") == KERNEL_WALK
        with pytest.raises(ValueError, match="unknown kernel"):
            check_kernel("vectorized")
        # Automatic: the batch kernel whenever it is available.
        assert resolve_kernel(None) == KERNEL_BATCH
        assert resolve_kernel("walk") == KERNEL_WALK  # explicit wins
        set_default_kernel("walk")
        assert resolve_kernel(None) == KERNEL_WALK
        assert resolve_kernel("batch") == KERNEL_BATCH  # explicit wins
        set_default_kernel(None)
        monkeypatch.setattr(kernel_mod, "batch_kernel_available", lambda: False)
        assert resolve_kernel(None) == KERNEL_WALK
        assert resolve_kernel("batch") == KERNEL_BATCH  # explicit wins

    def test_kernel_excluded_from_cache_key(self):
        job = SimulationJob(profile=get_benchmark("gzip"), num_instructions=1_000)
        batch_job = dataclasses.replace(job, kernel=KERNEL_BATCH)
        assert batch_job.cache_key() == job.cache_key()

    def test_engine_stamps_default_kernel_into_jobs(self):
        job = SimulationJob(profile=get_benchmark("gzip"), num_instructions=1_000)
        # Automatic stays unstamped: each worker chooses for itself.
        assert job.with_stamped_defaults() is job
        set_default_kernel("walk")
        assert job.with_stamped_defaults().kernel == KERNEL_WALK
        explicit = dataclasses.replace(job, kernel=KERNEL_BATCH)
        assert explicit.with_stamped_defaults().kernel == KERNEL_BATCH

    def test_simulator_default_follows_process_default(self):
        profile = get_benchmark("vortex")
        with obs_metrics.scope() as scoped:
            set_default_kernel("walk")
            walk = Simulator(profile, seed=6).run(1_500)
            set_default_kernel(None)
            batch = Simulator(profile, seed=6).run(1_500)
        assert batch.stats == walk.stats
        ran = scoped.snapshot()["counters"]
        assert ran["sim.kernel_walk"] == 1
        assert ran["sim.kernel_batch"] == 1


class TestErrorParity:
    """Both kernels reject the same inputs with the same messages."""

    @staticmethod
    def _trace(length=100):
        return list(generate_trace(get_benchmark("gzip"), length, seed=1))

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_empty_trace(self, kernel):
        with pytest.raises(ValueError, match="^cannot simulate an empty trace$"):
            ENGINES[kernel](iter(()), 0)

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_warmup_out_of_range(self, kernel):
        pipeline = ENGINES[kernel](chunk_instructions(self._trace(), 50), 100)
        with pytest.raises(ValueError, match=re.escape("warmup must be in [0, 100), got 100")):
            pipeline.run(warmup_instructions=100)

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_single_use(self, kernel):
        pipeline = ENGINES[kernel](chunk_instructions(self._trace(), 50), 100)
        pipeline.run()
        with pytest.raises(RuntimeError, match="single-use"):
            pipeline.run()

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_non_contiguous_chunks(self, kernel):
        trace = self._trace()
        chunks = [TraceChunk(0, trace[:50]), TraceChunk(60, trace[60:])]
        message = "non-contiguous chunk: expected start 50, got 60"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ENGINES[kernel](iter(chunks), 100).run()

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_overrunning_chunk(self, kernel):
        chunks = [TraceChunk(0, self._trace())]
        message = "chunk [0, 100) overruns the declared length 50"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ENGINES[kernel](iter(chunks), 50).run()

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_short_stream(self, kernel):
        chunks = chunk_instructions(self._trace()[:50], 50)
        message = (
            "trace stream ended at 50 instructions before the run completed "
            "(declared length 100)"
        )
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            ENGINES[kernel](chunks, 100).run()

    @pytest.mark.parametrize("kernel", BOTH_KERNELS)
    def test_deadlock(self, kernel):
        trace = list(generate_trace(get_benchmark("mcf"), 400, seed=1))
        with pytest.raises(DeadlockError, match="no forward progress by cycle"):
            ENGINES[kernel](chunk_instructions(trace, 100), len(trace)).run(max_cycles=10)
