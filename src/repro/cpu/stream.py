"""Trace chunks, and the one check on a stream of them.

The generator in :mod:`repro.cpu.workloads` historically materialized
every :class:`~repro.cpu.trace.TraceInstruction` into one Python list,
so *memory* — not CPU — capped scenario length. Traces now travel as
chunks:

* :class:`TraceChunk` — a contiguous block of committed-path
  instructions starting at a known trace position. The chunked iterator
  protocol (:func:`repro.cpu.workloads.iter_trace`) yields these.
* :func:`checked_chunks` — the stream contract both pipeline kernels
  read through: chunks start at 0, follow each other without gaps, stop
  at the declared length, and reach it. The walk
  (:class:`~repro.cpu.pipeline.Pipeline`) holds one chunk at a time
  behind a forward cursor; the batch kernel
  (:class:`~repro.cpu.kernel.BatchPipeline`) copies each into its
  engine. Either way a run's memory is independent of its length. It
  is also where a run stops early: when the context's
  :data:`stop_event` is set, the next chunk pulled raises
  :class:`RunStopped`.

A chunk holds one of two representations and derives the other on
demand. The compiled trace walker emits structure-of-arrays chunks:
seven per-field typed arrays (:data:`COLUMN_FIELDS`), which the
array-batched C kernel (:mod:`repro.cpu.kernel`) consumes zero-copy,
while instruction objects are a lazy view for the per-instruction walk
engine, golden files, and :func:`repro.cpu.trace.trace_digest`. The
reference walk, which runs where the walker cannot, emits object-backed
chunks (:func:`chunk_instructions`) whose columns are projected on
first access instead.

Where the chunk boundaries fall never changes a result: every
statistic accumulates online, cycle by cycle, and neither kernel looks
back into an earlier chunk. ``tests/test_streaming.py`` (the CI gate)
holds the walk ``==`` across chunk sizes, which is what licenses the
chunk size's absence from simulation cache keys;
``tests/test_columnar.py`` enforces the stronger digest-identity of the
compiled walker and the reference walk.
"""

from __future__ import annotations

import threading
from array import array
from contextvars import ContextVar
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.cpu.isa import OpClass
from repro.cpu.trace import TraceInstruction

#: The abort event of the batch a run belongs to, set by
#: :mod:`repro.exec.backends` on each thread of a threaded batch. Once
#: it is set, the run raises :class:`RunStopped` at its next chunk
#: instead of running to the end of its trace.
stop_event: ContextVar[Optional[threading.Event]] = ContextVar("stop_event", default=None)


class RunStopped(RuntimeError):
    """A run stopped at a chunk boundary because its batch was aborted."""


#: Instructions per chunk. Large enough that per-chunk Python overhead
#: vanishes against per-instruction simulation cost; small enough that
#: the two column-backed chunks a run holds stay under a megabyte
#: (42 bytes an instruction), however many runs share the process.
DEFAULT_CHUNK_SIZE = 8_192


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
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return chunk_size


def chunk_instructions(
    instructions: Iterable[TraceInstruction],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[TraceChunk]:
    """Batch an instruction iterable into contiguous object-backed chunks.

    Every chunk holds ``chunk_size`` instructions (>= 1) except the
    last, which carries the remainder.
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


def checked_chunks(
    chunks: Iterable[TraceChunk], total_instructions: int
) -> Iterator[TraceChunk]:
    """Re-yield ``chunks``, checking they tile ``[0, total_instructions)``.

    The one stream check both kernels read their trace through. The
    length is checked here, eagerly; each chunk as it is pulled: it
    must start where the previous one ended and must not run past the
    declared length. A stream that ends short of it raises on the pull
    that finds it exhausted, so a kernel that pulls only while it still
    needs instructions never reads past the end. A pull after the
    :data:`stop_event` of the puller's context was set raises
    :class:`RunStopped`.
    """
    if total_instructions == 0:
        raise ValueError("cannot simulate an empty trace")
    if total_instructions < 0:
        raise ValueError(
            f"total_instructions must be >= 1, got {total_instructions}"
        )
    return _checked(iter(chunks), total_instructions)


def _checked(chunks: Iterator[TraceChunk], total: int) -> Iterator[TraceChunk]:
    fed = 0
    stop = stop_event.get()
    for chunk in chunks:
        if stop is not None and stop.is_set():
            raise RunStopped(f"run stopped at instruction {fed}: its batch was aborted")
        if chunk.start != fed:
            raise ValueError(
                f"non-contiguous chunk: expected start {fed}, got {chunk.start}"
            )
        if chunk.end > total:
            raise ValueError(
                f"chunk [{chunk.start}, {chunk.end}) overruns the "
                f"declared length {total}"
            )
        fed = chunk.end
        yield chunk
    if fed < total:
        raise RuntimeError(
            f"trace stream ended at {fed} instructions before the run "
            f"completed (declared length {total})"
        )
