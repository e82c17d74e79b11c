"""The walk's chunk-size gate (CI) plus chunk-stream units.

The keystone contract of chunked trace delivery: the walk reproduces
itself *float-for-float* (``==``, not approx) whatever size the chunks
it reads — same idle histograms, same sleep-controller tallies, same
stall counts — for every seed benchmark and for sampled scenarios,
open- and closed-loop. Tiny chunks are compared with one chunk holding
the whole trace, so a walk that looked back into an earlier chunk, or
lost state at a boundary, fails here. This is what licenses the chunk
size's absence from the simulation cache keys.

The unit half covers the machinery itself: chunk contiguity, the stream
checks both kernels read through, and bounded residency: a run never
holds more than two chunks at once.
"""

import pytest

from repro.cpu.kernel import KERNEL_BATCH, KERNEL_WALK, BatchPipeline, batch_kernel_available
from repro.cpu.pipeline import Pipeline
from repro.cpu.simulator import Simulator
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.stream import TraceChunk, checked_chunks, chunk_instructions
from repro.cpu.trace import trace_digest
from repro.cpu.workloads import benchmark_names, generate_trace, get_benchmark, iter_trace
from repro.obs import metrics
from repro.scenarios import sample_scenarios

#: Small enough to exercise many chunk boundaries in short test windows.
TINY_CHUNK = 64

#: Closed-loop runtime used by the gate matrix: a nonzero wakeup
#: latency so sleep decisions really feed back into timing.
CLOSED_LOOP = SleepRuntimeSpec(policy="MaxSleep", wakeup_latency=2)


def _run(profile, chunk_size=None, sleep=None, window=2_500, warmup=500):
    """One uncached walk simulation, fed chunks of ``chunk_size``.

    ``None`` hands the walk the whole trace as one chunk. Pinned to the
    walk: the gate holds the reference kernel to itself, and the
    kernel-equivalence gate holds the batch kernel to the walk.
    """
    total = window + warmup
    chunks = iter_trace(profile, total, chunk_size=chunk_size or total)
    return Simulator(profile, sleep=sleep, kernel=KERNEL_WALK).run(
        window, warmup_instructions=warmup, chunks=chunks
    )


# -- the chunk-size gate -------------------------------------------------------


class TestWalkChunkSizeInvariance:
    """Tiny chunks == one whole-trace chunk, float for float (the CI gate)."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_open_loop_benchmarks(self, name):
        whole = _run(get_benchmark(name))
        tiny = _run(get_benchmark(name), TINY_CHUNK)
        # Dataclass equality covers every field: cycle and stall counts,
        # per-unit busy cycles, idle histograms (exact per-length
        # counts), and ordered interval sequences.
        assert tiny.stats == whole.stats

    @pytest.mark.parametrize("name", benchmark_names())
    def test_closed_loop_benchmarks(self, name):
        whole = _run(get_benchmark(name), sleep=CLOSED_LOOP)
        tiny = _run(get_benchmark(name), TINY_CHUNK, sleep=CLOSED_LOOP)
        assert tiny.stats == whole.stats
        # The closed-loop extras, called out explicitly: wakeup stalls
        # and per-unit energy-state tallies.
        assert tiny.stats.wakeup_stall_cycles == whole.stats.wakeup_stall_cycles
        for mine, theirs in zip(tiny.stats.fu_usage, whole.stats.fu_usage):
            assert mine.sleep_tally == theirs.sleep_tally
            assert mine.idle_histogram == theirs.idle_histogram

    @pytest.mark.parametrize(
        "scenario",
        sample_scenarios(4, seed=7, families=["memory_bound", "phased"]),
        ids=lambda s: s.scenario_id,
    )
    def test_sampled_scenarios_open_and_closed(self, scenario):
        for sleep in (None, CLOSED_LOOP):
            whole = _run(scenario.profile, sleep=sleep, window=2_000)
            tiny = _run(scenario.profile, TINY_CHUNK, sleep=sleep, window=2_000)
            assert tiny.stats == whole.stats

    def test_chunk_size_never_changes_results(self):
        profile = get_benchmark("vpr")
        reference = _run(profile)
        for chunk_size in (TINY_CHUNK, 257, 1_024):
            assert _run(profile, chunk_size).stats == reference.stats

    def test_gate_runs_the_walk(self):
        with metrics.scope() as scoped:
            _run(get_benchmark("gzip"), TINY_CHUNK, window=600, warmup=100)
        ran = scoped.snapshot()["counters"]
        assert ran.get("sim.kernel_walk") == 1
        assert "sim.kernel_batch" not in ran


# -- trace-level invariants ----------------------------------------------------


class TestIterTrace:
    @pytest.mark.parametrize("name", ["gzip", "mcf", "gcc"])
    def test_chunks_flatten_to_generate_trace(self, name):
        profile = get_benchmark(name)
        reference = generate_trace(profile, 3_001, seed=5)
        chunks = list(iter_trace(profile, 3_001, seed=5, chunk_size=TINY_CHUNK))
        flat = [instr for chunk in chunks for instr in chunk.instructions]
        assert flat == reference
        assert [chunk.start for chunk in chunks] == list(
            range(0, 3_001, TINY_CHUNK)
        )
        assert chunks[-1].end == 3_001

    def test_phased_hook_streams_members(self):
        scenario = next(
            s
            for s in sample_scenarios(2, seed=7, families=["phased"])
            if s.family == "phased"
        )
        reference = scenario.profile.build_trace(4_000, seed=2)
        chunks = list(
            iter_trace(scenario.profile, 4_000, seed=2, chunk_size=TINY_CHUNK)
        )
        assert trace_digest(
            instr for chunk in chunks for instr in chunk.instructions
        ) == trace_digest(reference)

    def test_rejects_bad_sizes(self):
        profile = get_benchmark("gzip")
        with pytest.raises(ValueError, match="num_instructions"):
            list(iter_trace(profile, 0))
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            list(iter_trace(profile, 100, chunk_size=0))

    def test_single_instruction_chunks(self):
        """No chunk-size floor: neither kernel reaches back a chunk."""
        profile = get_benchmark("mcf")
        chunks = list(iter_trace(profile, 40, seed=3, chunk_size=1))
        assert [len(chunk) for chunk in chunks] == [1] * 40
        flat = [instr for chunk in chunks for instr in chunk.instructions]
        assert flat == generate_trace(profile, 40, seed=3)


class TestTraceChunk:
    def test_validates_shape(self):
        with pytest.raises(ValueError, match="empty"):
            TraceChunk(0, [])
        with pytest.raises(ValueError, match="start"):
            TraceChunk(-1, generate_trace(get_benchmark("gzip"), 1))

    def test_end_is_exclusive(self):
        chunk = TraceChunk(10, generate_trace(get_benchmark("gzip"), 5))
        assert len(chunk) == 5
        assert chunk.end == 15


# -- the stream check both kernels read through --------------------------------


class TestCheckedChunks:
    def _chunks(self, length=300, chunk_size=100):
        trace = generate_trace(get_benchmark("gzip"), length, seed=9)
        return list(chunk_instructions(trace, chunk_size))

    def test_passes_a_tiling_stream_through(self):
        chunks = self._chunks()
        assert list(checked_chunks(iter(chunks), 300)) == chunks

    def test_length_is_checked_before_any_pull(self):
        def never():
            raise AssertionError("pulled")
            yield  # pragma: no cover

        with pytest.raises(ValueError, match="cannot simulate an empty trace"):
            checked_chunks(never(), 0)
        with pytest.raises(ValueError, match="total_instructions must be >= 1, got -5"):
            checked_chunks(never(), -5)

    def test_chunks_are_checked_as_they_are_pulled(self):
        """A bad chunk raises on its own pull, not on earlier ones."""
        first, _, third = self._chunks()
        stream = checked_chunks(iter([first, third]), 300)
        assert next(stream) is first
        with pytest.raises(ValueError, match="expected start 100, got 200"):
            next(stream)

    def test_a_short_stream_raises_only_when_pulled_past_its_end(self):
        first, second, _ = self._chunks()
        stream = checked_chunks(iter([first, second]), 300)
        assert [next(stream), next(stream)] == [first, second]
        with pytest.raises(RuntimeError, match="ended at 200 instructions"):
            next(stream)


# -- bounded residency ---------------------------------------------------------


class _CountedChunk(TraceChunk):
    """A chunk that counts how many of its kind are alive at once."""

    alive = 0
    peak = 0

    def __init__(self, start, instructions):
        super().__init__(start, instructions)
        _CountedChunk.alive += 1
        _CountedChunk.peak = max(_CountedChunk.peak, _CountedChunk.alive)

    def __del__(self):
        _CountedChunk.alive -= 1


@pytest.mark.parametrize(
    "engine",
    [
        Pipeline,
        pytest.param(
            BatchPipeline,
            marks=pytest.mark.skipif(
                not batch_kernel_available(),
                reason="no C compiler: the batch kernel cannot be built",
            ),
        ),
    ],
    ids=[KERNEL_WALK, KERNEL_BATCH],
)
def test_a_run_holds_at_most_two_chunks(engine):
    """60 chunks, made on demand: a kernel that listed the stream (or
    kept the chunks it had read) would hold all of them."""
    trace = generate_trace(get_benchmark("gzip"), 60 * TINY_CHUNK, seed=2)

    def made_on_demand():
        for start in range(0, len(trace), TINY_CHUNK):
            yield _CountedChunk(start, trace[start:start + TINY_CHUNK])

    _CountedChunk.alive = _CountedChunk.peak = 0
    stats = engine(made_on_demand(), len(trace)).run()
    assert stats == Pipeline([TraceChunk(0, trace)], len(trace)).run()
    assert _CountedChunk.peak <= 2
