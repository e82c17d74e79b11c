"""The columnar-equivalence gate (CI) plus TraceChunk machinery units.

The keystone contract of the columnar trace pipeline: the compiled C
trace walker and the phased composite interleave reproduce the
per-instruction reference walk *digest-identical*
(:func:`~repro.cpu.trace.trace_digest` over every field of every slot),
for every seed benchmark, for sampled scenarios, and for phased
composites, across chunk sizes. Digest identity is strictly stronger
than the float-equality the simulation gates assert: two traces with
the same digest are the same sequence of integers, so *any* consumer —
either pipeline kernel, any statistic, any future analysis — is
automatically unaffected by which generator produced them.

The simulation half closes the loop end-to-end: column-backed chunks
fed zero-copy to the batch kernel produce results ``==`` the walked
reference, open- and closed-loop, streaming on and off, across chunk
sizes including the degenerate ones (1 and 7, via re-chunking) the
streaming generators themselves refuse.

The C walker builds each trace's static program itself, from the
structure generator's transplanted state, so the digest gate checks the
build draw for draw as well as the walk; the build tests pin that no
Python program is built on the fast path, and that threads and
same-name profiles keep their digests. Where the walker cannot run (no
compiler, or a profile outside its fixed widths), ``iter_trace`` chunks
the reference walk itself; the fallback tests pin its chunking and its
simulations.

The unit half covers the dual-representation :class:`TraceChunk`
itself: ``from_columns`` validation, lazy instruction materialization,
object->column projection round-trips, and ``is_columnar`` provenance
(projection must not masquerade as native columnar backing — the CI
fast-path guard depends on it).
"""

import dataclasses
import sys
import threading
from array import array

import pytest

from repro.cpu import _trace_build, workloads
from repro.cpu._trace_build import (
    trace_kernel_available,
    trace_kernel_unavailable_reason,
)
from repro.cpu.isa import OpClass
from repro.cpu.kernel import (
    KERNEL_BATCH,
    KERNEL_WALK,
    BatchPipeline,
    batch_kernel_available,
)
from repro.cpu.pipeline import Pipeline
from repro.cpu.simulator import Simulator
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.stream import (
    COLUMN_TYPECODES,
    TraceChunk,
    chunk_instructions,
)
from repro.cpu.trace import TraceInstruction, trace_digest
from repro.cpu.workloads import (
    _walk_trace,
    benchmark_names,
    generate_trace,
    get_benchmark,
    iter_trace,
)
from repro.scenarios import DEFAULT_SPACE, sample_scenarios
from repro.scenarios.phased import PhasedProfile

#: Closed-loop runtime with a nonzero wakeup latency so sleep decisions
#: really feed back into timing.
CLOSED_LOOP = SleepRuntimeSpec(policy="MaxSleep", wakeup_latency=2)


def _phased(name="columnar-mix"):
    return PhasedProfile(
        name,
        (get_benchmark("gcc"), get_benchmark("mcf"), get_benchmark("vortex")),
        (700, 333, 1009),
    )


def _drain(chunks):
    """Materialize a chunk stream, asserting it is column-backed wherever
    the compiled walker runs (without it, plain profiles' chunks are the
    reference walk's objects)."""
    columnar = trace_kernel_available()
    instructions = []
    for chunk in chunks:
        assert chunk.is_columnar or not columnar, "generator fell back to object chunks"
        instructions.extend(chunk.instructions)
    return instructions


def _reference_trace(profile, length, seed):
    """The reference walk's stream (the object interleave for composites)."""
    build = getattr(profile, "build_trace", None)
    if build is not None:
        return build(length, seed)
    return list(_walk_trace(profile, length, seed))


# -- the digest-identity gate ---------------------------------------------------


class TestColumnarDigestGate:
    """Columnar generation == the reference walk, digest for digest."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_all_benchmarks(self, name):
        profile = get_benchmark(name)
        reference = trace_digest(list(_walk_trace(profile, 20_000, 7)))
        for chunk_size in (64, 1_024, 20_000):
            columnar = _drain(
                iter_trace(profile, 20_000, seed=7, chunk_size=chunk_size)
            )
            assert trace_digest(columnar) == reference, (name, chunk_size)

    def test_generate_trace_matches_reference(self):
        profile = get_benchmark("gzip")
        reference = list(_walk_trace(profile, 10_000, 5))
        assert trace_digest(generate_trace(profile, 10_000, seed=5)) == (
            trace_digest(reference)
        )

    def test_sampled_scenarios(self):
        """Five scenarios of every family, phased composites (members at
        their PC offsets) included."""
        scenarios = sample_scenarios(30, seed=17)
        assert {s.family for s in scenarios} == set(DEFAULT_SPACE.families)
        for scenario in scenarios:
            profile = scenario.profile
            columnar = _drain(iter_trace(profile, 8_000, seed=2))
            reference = _reference_trace(profile, 8_000, 2)
            assert trace_digest(columnar) == trace_digest(reference), (
                scenario.scenario_id
            )

    def test_phased_composite(self):
        """The columnar member-relocating interleave == the object
        interleave (``build_trace``), chunk boundaries included."""
        profile = _phased()
        reference = profile.build_trace(25_000, seed=11)
        for chunk_size in (64, 1_024, 25_000):
            chunks = list(
                profile.iter_trace_chunks(25_000, seed=11, chunk_size=chunk_size)
            )
            sizes = [len(c) for c in chunks]
            assert sizes[:-1] == [chunk_size] * (len(sizes) - 1)
            assert 0 < sizes[-1] <= chunk_size
            columnar = _drain(chunks)
            assert trace_digest(columnar) == trace_digest(reference)


# -- the compiled walker's static-program build ---------------------------------


@pytest.mark.skipif(
    not trace_kernel_available(),
    reason=f"no trace kernel: {trace_kernel_unavailable_reason()}",
)
class TestWalkerBuildsItsProgram:
    """The C walker builds each trace's static program itself, from the
    structure stream alone, with the reference build's digests."""

    @staticmethod
    def _probe(name="program-build-probe", **changes):
        return dataclasses.replace(get_benchmark("gcc"), name=name, **changes)

    @staticmethod
    def _reference(profile, length, seed):
        return trace_digest(list(_walk_trace(profile, length, seed)))

    def test_fast_path_builds_no_python_program(self, monkeypatch):
        profile = get_benchmark("parser")
        reference = self._reference(profile, 6_000, 3)

        def built(*args, **kwargs):
            raise AssertionError("the fast path built a Python static program")

        monkeypatch.setattr(workloads, "_StaticProgram", built)
        chunks = list(iter_trace(profile, 6_000, seed=3, chunk_size=1_024))
        assert all(chunk.is_columnar for chunk in chunks)
        flat = [instr for chunk in chunks for instr in chunk.instructions]
        assert trace_digest(flat) == reference

    def test_short_trace_is_a_prefix_of_long(self):
        """The program depends on (profile, seed) only, not the length."""
        profile = self._probe()
        short = _drain(iter_trace(profile, 3_000, seed=4))
        long = _drain(iter_trace(profile, 7_000, seed=4))
        assert trace_digest(short) == trace_digest(long[:3_000])
        assert trace_digest(long) == self._reference(profile, 7_000, 4)

    def test_threads_generating_one_trace_agree(self):
        """Eight threads over two programs build theirs concurrently;
        every trace must still match."""
        profiles = (self._probe(), self._probe("program-build-rival"))
        expected = {p: self._reference(p, 4_000, 2) for p in profiles}
        barrier = threading.Barrier(8, timeout=60)
        digests = []

        def generate(profile):
            barrier.wait()
            for _ in range(3):
                chunks = iter_trace(profile, 4_000, seed=2, chunk_size=512)
                digests.append((profile, trace_digest(_drain(chunks))))

        threads = [
            threading.Thread(target=generate, args=(profiles[index % 2],))
            for index in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(digests) == 24
        assert all(digest == expected[profile] for profile, digest in digests)

    def test_profiles_sharing_a_name_do_not_collide(self):
        first = self._probe()
        second = self._probe(num_blocks=first.num_blocks + 50)
        for profile in (first, second):
            columnar = _drain(iter_trace(profile, 3_000, seed=1))
            assert trace_digest(columnar) == self._reference(profile, 3_000, 1)


# -- the reference-walk fallback -----------------------------------------------


class TestReferenceFallback:
    """Where the compiled walker cannot run, ``iter_trace`` cuts the
    reference walk into object-backed chunks: the same stream, the same
    boundaries, the same simulations."""

    @staticmethod
    def _wide_heap():
        """Heap offsets past 32 bits: outside the walker's fixed widths on
        every host, compiler or not."""
        return dataclasses.replace(
            get_benchmark("mcf"), name="wide-heap", heap_bytes=8 * 2**30
        )

    @staticmethod
    def _check_chunks(chunks, length, chunk_size, reference):
        assert [chunk.start for chunk in chunks] == list(range(0, length, chunk_size))
        assert all(len(chunk) == chunk_size for chunk in chunks[:-1])
        assert chunks[-1].end == length
        assert not any(chunk.is_columnar for chunk in chunks)
        flat = [instr for chunk in chunks for instr in chunk.instructions]
        assert trace_digest(flat) == reference

    @pytest.mark.parametrize("name", ("gcc", "health", "mcf"))
    def test_without_compiler(self, name, monkeypatch):
        monkeypatch.setattr(_trace_build, "trace_kernel_available", lambda: False)
        profile = get_benchmark(name)
        reference = trace_digest(list(_walk_trace(profile, 10_000, 3)))
        for chunk_size in (64, 1_024, 10_000):
            chunks = list(iter_trace(profile, 10_000, seed=3, chunk_size=chunk_size))
            self._check_chunks(chunks, 10_000, chunk_size, reference)

    @pytest.mark.skipif(
        not trace_kernel_available(),
        reason=f"no trace kernel: {trace_kernel_unavailable_reason()}",
    )
    def test_c_walker_matches_fallback(self, monkeypatch):
        """Direct walker-vs-fallback comparison on one benchmark: the
        dispatch switches engines without moving a chunk boundary or
        changing a slot."""
        profile = get_benchmark("mcf")

        def run():
            chunks = list(iter_trace(profile, 30_000, seed=9, chunk_size=4_000))
            flat = [instr for chunk in chunks for instr in chunk.instructions]
            return chunks, trace_digest(flat)

        native, native_digest = run()
        assert all(chunk.is_columnar for chunk in native)
        monkeypatch.setattr(_trace_build, "trace_kernel_available", lambda: False)
        fallback, fallback_digest = run()
        assert not any(chunk.is_columnar for chunk in fallback)
        assert [(c.start, c.end) for c in fallback] == [
            (c.start, c.end) for c in native
        ]
        assert fallback_digest == native_digest

    def test_dispatch_is_lazy(self, monkeypatch):
        """Choosing the engine, and so building the walker and the static
        program, waits for the first pull, which the batch kernel charges
        to its ``generate`` stage."""
        calls = []
        usable = workloads._trace_kernel_usable

        def counted(profile):
            calls.append(profile.name)
            return usable(profile)

        monkeypatch.setattr(workloads, "_trace_kernel_usable", counted)
        chunks = iter_trace(get_benchmark("gzip"), 2_000, seed=1, chunk_size=512)
        assert calls == []
        first = next(chunks)
        assert calls == ["gzip"]
        assert (first.start, first.end) == (0, 512)

    def test_profile_outside_walker_widths(self):
        profile = self._wide_heap()
        assert not workloads._trace_kernel_usable(profile)
        reference = trace_digest(list(_walk_trace(profile, 6_000, 2)))
        chunks = list(iter_trace(profile, 6_000, seed=2, chunk_size=1_024))
        self._check_chunks(chunks, 6_000, 1_024, reference)

    def test_block_count_outside_walker_widths(self):
        """The walker's block indices are int32: a program of 2^31 blocks
        goes to the reference walk (only the predicate runs here)."""
        gzip = get_benchmark("gzip")
        inside = 2**31 - 1 - gzip.num_blocks
        fits = dataclasses.replace(
            gzip, name="wide-code", num_functions=1, function_blocks=inside
        )
        assert workloads._trace_kernel_usable(fits) == trace_kernel_available()
        wide = dataclasses.replace(fits, function_blocks=inside + 1)
        assert not workloads._trace_kernel_usable(wide)

    @pytest.mark.skipif(
        not batch_kernel_available(),
        reason="no C compiler: the batch kernel cannot be built",
    )
    def test_profile_outside_walker_widths_simulates_identically(self):
        """Object chunks reach the batch kernel through column projection."""
        profile = self._wide_heap()
        walk = Simulator(profile, seed=2, kernel=KERNEL_WALK).run(
            4_000, warmup_instructions=400
        )
        batch = Simulator(profile, seed=2, kernel=KERNEL_BATCH).run(
            4_000, warmup_instructions=400
        )
        assert batch.stats == walk.stats


# -- the simulation gate --------------------------------------------------------


@pytest.mark.skipif(
    not batch_kernel_available(),
    reason="no C compiler: the batch kernel cannot be built",
)
class TestColumnarSimulationGate:
    """Column-backed chunks through the batch kernel == the walk."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_all_benchmarks_open_loop(self, name):
        profile = get_benchmark(name)
        walk = Simulator(profile, seed=7, kernel=KERNEL_WALK).run(5_000)
        batch = Simulator(profile, seed=7, kernel=KERNEL_BATCH).run(5_000)
        assert batch.stats == walk.stats

    @pytest.mark.parametrize("name", ("gcc", "mcf", "health"))
    def test_closed_loop(self, name):
        profile = get_benchmark(name)
        walk = Simulator(
            profile, seed=3, sleep=CLOSED_LOOP, kernel=KERNEL_WALK
        ).run(4_000, warmup_instructions=400)
        batch = Simulator(
            profile, seed=3, sleep=CLOSED_LOOP, kernel=KERNEL_BATCH
        ).run(4_000, warmup_instructions=400)
        assert batch.stats == walk.stats

    @pytest.mark.parametrize("chunk_size", (64, 4_000))
    def test_walk_reads_columnar_chunks(self, chunk_size):
        """Columnar chunks feed the walk through their object view, many
        small ones or one whole-trace chunk alike."""
        profile = get_benchmark("vpr")
        chunks = iter_trace(profile, 4_000, seed=5, chunk_size=chunk_size)
        walk = Simulator(profile, seed=5, kernel=KERNEL_WALK).run(4_000, chunks=chunks)
        batch = Simulator(profile, seed=5, kernel=KERNEL_BATCH).run(4_000)
        assert batch.stats == walk.stats

    @pytest.mark.parametrize("chunk_size", (1, 7, 1_024, 6_000))
    def test_chunk_sizes_incl_degenerate(self, chunk_size):
        """Degenerate sizes (1, 7) reach the kernel via re-chunking;
        boundaries can never affect results."""
        trace = generate_trace(get_benchmark("gcc"), 6_000, seed=11)
        reference = Pipeline([TraceChunk(0, trace)], len(trace)).run()
        batch = BatchPipeline(chunk_instructions(trace, chunk_size), len(trace)).run()
        assert batch == reference

    def test_sampled_scenarios(self):
        for scenario in sample_scenarios(3, seed=17):
            walk = Simulator(
                scenario.profile, seed=2, kernel=KERNEL_WALK
            ).run(4_000)
            batch = Simulator(
                scenario.profile, seed=2, kernel=KERNEL_BATCH
            ).run(4_000)
            assert batch.stats == walk.stats

    def test_phased_composite(self):
        profile = _phased()
        walk = Simulator(profile, seed=11, kernel=KERNEL_WALK).run(6_000)
        batch = Simulator(profile, seed=11, kernel=KERNEL_BATCH).run(6_000)
        assert batch.stats == walk.stats

    def test_decode_is_zero_copy_for_columnar_chunks(self):
        """The fast path really is pass-through: the kernel reads the
        chunks' own columns and never builds instruction objects."""
        chunks = list(iter_trace(get_benchmark("gcc"), 1_000, seed=1, chunk_size=256))
        assert all(chunk.is_columnar for chunk in chunks)
        BatchPipeline(iter(chunks), 1_000).run()
        assert all(chunk._instructions is None for chunk in chunks)


# -- TraceChunk machinery units -------------------------------------------------


def _columns(rows):
    """Columns for ``rows`` of (op, pc, dep1, dep2, address, taken, target)."""
    cols = list(zip(*rows))
    return tuple(
        array(code, values)
        for code, values in zip(COLUMN_TYPECODES, cols)
    )


class TestTraceChunkMachinery:
    ROWS = [
        (int(OpClass.INT_ALU), 0x400000, 0, 0, 0, 0, 0),
        (int(OpClass.LOAD), 0x400004, 1, 0, 0x30000000, 0, 0),
        (int(OpClass.BRANCH), 0x400008, 2, 1, 0, 1, 0x400100),
    ]

    def test_from_columns_is_column_backed(self):
        chunk = TraceChunk.from_columns(0, _columns(self.ROWS))
        assert chunk.is_columnar
        assert len(chunk) == 3
        assert chunk.end == 3

    def test_lazy_materialization(self):
        chunk = TraceChunk.from_columns(5, _columns(self.ROWS))
        instructions = chunk.instructions
        assert [i.op for i in instructions] == [OpClass.INT_ALU, OpClass.LOAD, OpClass.BRANCH]
        assert instructions[1].address == 0x30000000
        assert instructions[2].taken is True
        assert instructions[2].target == 0x400100
        # Materialization is cached, not recomputed per access.
        assert chunk.instructions is instructions

    def test_projection_round_trip(self):
        objects = [
            TraceInstruction(
                OpClass(op), pc, dep1=d1, dep2=d2, address=addr, taken=bool(taken), target=target
            )
            for op, pc, d1, d2, addr, taken, target in self.ROWS
        ]
        chunk = TraceChunk(0, objects)
        rebuilt = TraceChunk.from_columns(0, chunk.columns)
        assert rebuilt.instructions == objects
        # Projection is cached too.
        assert chunk.columns is chunk.columns

    def test_is_columnar_is_provenance_not_state(self):
        """Projecting an object chunk's columns must NOT flip it to
        columnar — the CI fast-path guard reads this flag to prove the
        generators produced columns natively."""
        chunk = TraceChunk(0, [TraceInstruction(OpClass.NOP, 0x400000)])
        assert not chunk.is_columnar
        _ = chunk.columns
        assert not chunk.is_columnar

    def test_chunk_instructions_helper(self):
        """Object chunks cut at exact boundaries, at any size >= 1: the
        streaming floor belongs to ``iter_trace``, not to the helper."""
        objects = [
            TraceInstruction(OpClass.NOP, 0x400000 + 4 * i) for i in range(5)
        ]
        chunks = list(chunk_instructions(objects, 2))
        assert [(c.start, c.end) for c in chunks] == [(0, 2), (2, 4), (4, 5)]
        assert not any(chunk.is_columnar for chunk in chunks)
        assert [i for c in chunks for i in c.instructions] == objects
        assert list(chunk_instructions([], 2)) == []

    def test_from_columns_validation(self):
        good = _columns(self.ROWS)
        with pytest.raises(ValueError):
            TraceChunk.from_columns(-1, good)
        with pytest.raises(ValueError):
            TraceChunk.from_columns(0, good[:6])  # wrong arity
        bad_type = list(good)
        bad_type[1] = array("i", [0, 0, 0])  # pc must be 'q'
        with pytest.raises(ValueError):
            TraceChunk.from_columns(0, tuple(bad_type))
        ragged = list(good)
        ragged[2] = array("q", [0])  # shorter than the others
        with pytest.raises(ValueError):
            TraceChunk.from_columns(0, tuple(ragged))
        with pytest.raises(ValueError):
            TraceChunk.from_columns(
                0, tuple(array(code) for code in COLUMN_TYPECODES)
            )  # empty

    def test_object_constructor_still_validates(self):
        with pytest.raises(ValueError):
            TraceChunk(-1, [TraceInstruction(OpClass.NOP, 0)])
        with pytest.raises(ValueError):
            TraceChunk(0, [])
