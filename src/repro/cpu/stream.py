"""Bounded-memory trace streaming: column-backed chunks and the window.

The generator in :mod:`repro.cpu.workloads` historically materialized
every :class:`~repro.cpu.trace.TraceInstruction` into one Python list,
so *memory* — not CPU — capped scenario length. This module provides the
streaming counterparts:

* :class:`TraceChunk` — a contiguous block of committed-path
  instructions starting at a known trace position. The chunked iterator
  protocol (:func:`repro.cpu.workloads.iter_trace`) yields these.
* :class:`StreamingTrace` — a read-only, length-aware sequence over a
  chunk iterator that keeps only a small sliding window of chunks
  resident. The pipeline reads its trace through two near-sequential
  cursors (the fetch index, and the fetch-queue head during dispatch,
  which trails it by at most the fetch-queue depth), so a window of a
  few chunks is sufficient — and accesses behind the window raise
  rather than silently re-generating.

A chunk holds one of two representations and derives the other on
demand. The compiled trace walker emits structure-of-arrays chunks:
seven per-field typed arrays (:data:`COLUMN_FIELDS`), which the
array-batched C kernel (:mod:`repro.cpu.kernel`) consumes zero-copy,
while instruction objects are a lazy view for the per-instruction walk
engine, golden files, and :func:`repro.cpu.trace.trace_digest`. The
reference walk, which runs where the walker cannot, emits object-backed
chunks (:func:`chunk_instructions`) whose columns are projected on
first access instead.

The streaming path is *observationally identical* to the materialized
one: the same walk produces the same instructions in the same order,
and the pipeline code consuming them is unchanged. That float-for-float
equivalence is enforced by ``tests/test_streaming.py`` (the CI gate)
and is what licenses streaming's absence from simulation cache keys;
``tests/test_columnar.py`` enforces the stronger digest-identity of the
compiled walker and the reference walk.

:func:`resolve_streaming` picks the walk's delivery mode: streamed at or
above :data:`STREAMING_THRESHOLD` total instructions, materialized below
it, unless a :class:`~repro.cpu.simulator.Simulator` caller forces one.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Deque, Iterable, Iterator, List, Optional, Sequence, Tuple, overload

from repro.cpu.isa import OpClass
from repro.cpu.trace import TraceInstruction

#: Instructions per chunk. Large enough that per-chunk Python overhead
#: vanishes against per-instruction simulation cost; small enough that a
#: handful of resident chunks stays in the tens of megabytes.
DEFAULT_CHUNK_SIZE = 32_768

#: Auto-streaming threshold: total trace lengths (window + warmup) at or
#: above this stream by default. Below it, a materialized list is cheap
#: (< ~100 MB) and marginally faster to index.
STREAMING_THRESHOLD = 500_000

#: Chunks kept resident by :class:`StreamingTrace`. The pipeline's
#: backward reach is the fetch-queue depth (8 instructions), so two
#: chunks always suffice at any legal chunk size; three leaves margin.
RETAIN_CHUNKS = 3

#: Floor on configurable chunk sizes: the sliding window must always
#: cover the pipeline's backward reach (fetch-queue depth) with a chunk
#: to spare.
MIN_CHUNK_SIZE = 64


#: The per-field columns of a chunk, in canonical order — the order the
#: C kernel's ``repro_feed`` takes them.
COLUMN_FIELDS = ("op", "pc", "dep1", "dep2", "address", "taken", "target")

#: ``array.array`` typecodes per column: one unsigned byte for the op
#: class and the taken flag, a signed 64-bit integer for everything
#: else. These match the C kernel ABI (``uint8_t*`` / ``int64_t*``), so
#: column-backed chunks feed it without conversion.
COLUMN_TYPECODES = ("B", "q", "q", "q", "q", "B", "q")

#: OpClass values are contiguous from 0 in definition order, so the
#: enum member for a stored op byte is a tuple index away.
_OP_BY_VALUE = tuple(OpClass)

#: Column tuple: (op, pc, dep1, dep2, address, taken, target) arrays.
Columns = Tuple[array, array, array, array, array, array, array]


class TraceChunk:
    """A contiguous block of a committed-path trace.

    ``start`` is the trace index of the chunk's first instruction;
    consecutive chunks from one stream are contiguous and
    non-overlapping.

    A chunk holds one of two representations and derives the other
    lazily:

    * **column-backed** (:meth:`from_columns`, the form the compiled
      trace walker and the phased interleave emit): seven typed arrays
      in :data:`COLUMN_FIELDS` order. :attr:`instructions` materializes
      equal ``TraceInstruction`` objects on first access — same ops
      (as :class:`~repro.cpu.isa.OpClass`), same ints, same bools — so
      digests, goldens, and the walk engine see an identical trace.
    * **object-backed** (``TraceChunk(start, instructions)``, the form
      the reference walk emits): a ``TraceInstruction`` list.
      :attr:`columns` projects the typed arrays on first access.

    Both derivations are cached on the chunk; neither mutates the
    source representation. Digest-identity between the two directions
    is a CI gate (``tests/test_columnar.py``).
    """

    __slots__ = ("start", "_instructions", "_columns", "_columnar")

    def __init__(
        self,
        start: int,
        instructions: Optional[List[TraceInstruction]] = None,
    ):
        if start < 0:
            raise ValueError(f"chunk start must be >= 0, got {start}")
        if instructions is None:
            raise ValueError(
                "provide an instruction list, or build column-backed "
                "chunks with TraceChunk.from_columns"
            )
        if not instructions:
            raise ValueError("a trace chunk cannot be empty")
        self.start = start
        self._instructions: Optional[List[TraceInstruction]] = instructions
        self._columns: Optional[Columns] = None
        self._columnar = False

    @classmethod
    def from_columns(cls, start: int, columns: Columns) -> "TraceChunk":
        """Build a column-backed chunk from seven typed arrays.

        ``columns`` must follow :data:`COLUMN_FIELDS` order with
        :data:`COLUMN_TYPECODES` typecodes and equal, non-zero lengths.
        The arrays are adopted, not copied — callers hand over
        ownership.
        """
        if start < 0:
            raise ValueError(f"chunk start must be >= 0, got {start}")
        columns = tuple(columns)
        if len(columns) != len(COLUMN_FIELDS):
            raise ValueError(
                f"expected {len(COLUMN_FIELDS)} columns "
                f"({', '.join(COLUMN_FIELDS)}), got {len(columns)}"
            )
        length = len(columns[0])
        if length == 0:
            raise ValueError("a trace chunk cannot be empty")
        for name, typecode, column in zip(
            COLUMN_FIELDS, COLUMN_TYPECODES, columns
        ):
            if getattr(column, "typecode", None) != typecode:
                raise ValueError(
                    f"column {name!r} must be an array.array({typecode!r}), "
                    f"got {type(column).__name__}"
                    + (
                        f"({column.typecode!r})"
                        if isinstance(column, array)
                        else ""
                    )
                )
            if len(column) != length:
                raise ValueError(
                    f"ragged columns: {name!r} has {len(column)} entries, "
                    f"expected {length}"
                )
        chunk = cls.__new__(cls)
        chunk.start = start
        chunk._instructions = None
        chunk._columns = columns
        chunk._columnar = True
        return chunk

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns[0])
        return len(self._instructions)

    def __repr__(self) -> str:
        backing = "columnar" if self._columnar else "objects"
        return (
            f"TraceChunk(start={self.start}, len={len(self)}, {backing})"
        )

    @property
    def end(self) -> int:
        """One past the trace index of the last instruction."""
        return self.start + len(self)

    @property
    def is_columnar(self) -> bool:
        """True iff this chunk was built column-first (the fast path).

        Object-backed chunks that have since projected columns still
        report False: the flag records provenance, which is what the
        "fast path actually ran" CI guard needs.
        """
        return self._columnar

    @property
    def instructions(self) -> List[TraceInstruction]:
        """The chunk as instruction objects (materialized on demand)."""
        instructions = self._instructions
        if instructions is None:
            op, pc, dep1, dep2, address, taken, target = self._columns
            ops = _OP_BY_VALUE
            instructions = [
                TraceInstruction(
                    ops[row[0]], row[1], row[2], row[3], row[4],
                    bool(row[5]), row[6],
                )
                for row in zip(op, pc, dep1, dep2, address, taken, target)
            ]
            self._instructions = instructions
        return instructions

    @property
    def columns(self) -> Columns:
        """The chunk as typed-array columns (projected on demand)."""
        columns = self._columns
        if columns is None:
            instructions = self._instructions
            columns = (
                array("B", [i.op for i in instructions]),
                array("q", [i.pc for i in instructions]),
                array("q", [i.dep1 for i in instructions]),
                array("q", [i.dep2 for i in instructions]),
                array("q", [i.address for i in instructions]),
                array("B", [1 if i.taken else 0 for i in instructions]),
                array("q", [i.target for i in instructions]),
            )
            self._columns = columns
        return columns


def check_chunk_size(chunk_size: int) -> int:
    """Validate a chunk size, returning it for chaining."""
    if chunk_size < MIN_CHUNK_SIZE:
        raise ValueError(
            f"chunk_size must be >= {MIN_CHUNK_SIZE}, got {chunk_size}"
        )
    return chunk_size


def chunk_instructions(
    instructions: Iterable[TraceInstruction],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[TraceChunk]:
    """Batch an instruction iterable into contiguous object-backed chunks.

    Every chunk holds ``chunk_size`` instructions except the last, which
    carries the remainder. Any size >= 1 works: the
    :data:`MIN_CHUNK_SIZE` floor is for streamed traces, and
    :func:`~repro.cpu.workloads.iter_trace` enforces it.
    """
    start = 0
    buffer: List[TraceInstruction] = []
    for instruction in instructions:
        buffer.append(instruction)
        if len(buffer) >= chunk_size:
            yield TraceChunk(start, buffer)
            start += len(buffer)
            buffer = []
    if buffer:
        yield TraceChunk(start, buffer)


class StreamingTrace(Sequence):
    """A length-aware, read-only sequence over a chunk iterator.

    Drop-in for the materialized trace list anywhere access is
    near-sequential (the pipeline, ``validate_trace``, one-shot
    iteration): ``len()`` is known up front, ``trace[i]`` loads chunks
    forward on demand, and chunks more than :attr:`retain_chunks` behind
    the newest loaded one are evicted. An access behind the window
    raises :class:`RuntimeError` — bounded memory is a contract here,
    not a cache heuristic that silently degrades.
    """

    __slots__ = (
        "_chunks",
        "_loaded",
        "_length",
        "_next_start",
        "retain_chunks",
        "chunks_loaded",
        "peak_buffered",
    )

    def __init__(
        self,
        chunks: Iterable[TraceChunk],
        length: int,
        retain_chunks: int = RETAIN_CHUNKS,
    ):
        if length < 1:
            raise ValueError(f"trace length must be >= 1, got {length}")
        if retain_chunks < 2:
            raise ValueError(
                f"retain_chunks must be >= 2 (dispatch trails fetch), "
                f"got {retain_chunks}"
            )
        self._chunks = iter(chunks)
        self._loaded: Deque[TraceChunk] = deque()
        self._length = length
        self._next_start = 0
        self.retain_chunks = retain_chunks
        #: Total chunks pulled from the source (observability for tests).
        self.chunks_loaded = 0
        #: High-water mark of simultaneously resident instructions — the
        #: bounded-memory assertion in the streaming bench reads this.
        self.peak_buffered = 0

    def __len__(self) -> int:
        return self._length

    @overload
    def __getitem__(self, index: int) -> TraceInstruction: ...

    @overload
    def __getitem__(self, index: slice) -> Sequence[TraceInstruction]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            raise TypeError("streaming traces do not support slicing")
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(f"trace index {index} out of range")
        loaded = self._loaded
        if loaded and index < loaded[-1].end:
            # Resident window (the hot path: fetch hits the newest chunk,
            # dispatch at worst the one before it).
            for chunk in reversed(loaded):
                if index >= chunk.start:
                    return chunk.instructions[index - chunk.start]
            raise RuntimeError(
                f"trace index {index} was evicted from the streaming "
                f"window (oldest resident: {loaded[0].start}); streaming "
                f"traces only support near-sequential access"
            )
        return self._load_until(index)

    def _load_until(self, index: int) -> TraceInstruction:
        """Pull chunks forward until ``index`` is resident; return it."""
        loaded = self._loaded
        while True:
            try:
                chunk = next(self._chunks)
            except StopIteration:
                raise RuntimeError(
                    f"trace stream ended at {self._next_start} instructions "
                    f"before reaching index {index} (declared length "
                    f"{self._length})"
                ) from None
            if chunk.start != self._next_start:
                raise ValueError(
                    f"non-contiguous chunk: expected start "
                    f"{self._next_start}, got {chunk.start}"
                )
            if chunk.end > self._length:
                raise ValueError(
                    f"chunk [{chunk.start}, {chunk.end}) overruns the "
                    f"declared length {self._length}"
                )
            self._next_start = chunk.end
            loaded.append(chunk)
            self.chunks_loaded += 1
            while len(loaded) > self.retain_chunks:
                loaded.popleft()
            buffered = sum(len(resident) for resident in loaded)
            if buffered > self.peak_buffered:
                self.peak_buffered = buffered
            if index < chunk.end:
                return chunk.instructions[index - chunk.start]


# -- mode resolution -----------------------------------------------------------


def resolve_streaming(
    streaming: Optional[bool], total_instructions: int
) -> bool:
    """Decide whether a run of ``total_instructions`` should stream.

    An explicit request wins; ``None`` streams at or above
    :data:`STREAMING_THRESHOLD`. Because streaming and materialized runs
    are float-for-float identical (the equivalence gate), this choice
    affects memory only — never results, and never cache keys.
    """
    if streaming is not None:
        return streaming
    return total_instructions >= STREAMING_THRESHOLD


def resolve_chunk_size(chunk_size: Optional[int]) -> int:
    """Normalize an optional chunk-size request against the default."""
    if chunk_size is None:
        return DEFAULT_CHUNK_SIZE
    return check_chunk_size(chunk_size)
