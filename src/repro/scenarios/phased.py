"""Phased composite workloads: one trace, several behavioral phases.

Real programs move through phases — a parser's token loop gives way to a
pointer-chasing symbol pass — and phase changes are exactly what
separates adaptive sleep policies from static ones: the idle-interval
distribution the policy tuned itself to stops being the distribution it
faces. :class:`PhasedProfile` models this by interleaving *member*
profiles inside one committed-path trace, switching at configurable
phase lengths.

Semantics: each member behaves like a program region that *resumes* —
its instruction stream is generated once (same static program, one
continuous walk) and consumed chunk by chunk as its phases come around,
so loop trip patterns, stream offsets, and predictor-visible structure
carry across a member's phases instead of restarting.

A ``PhasedProfile`` is a frozen dataclass, so it flows through
:class:`~repro.exec.jobs.SimulationJob`, both cache layers, and the
process-pool scheduler exactly like a plain profile; its canonical form
(class tag + member profiles + phase lengths) keeps its cache keys
disjoint from every member's own.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.cpu.stream import (
    COLUMN_TYPECODES,
    DEFAULT_CHUNK_SIZE,
    Columns,
    TraceChunk,
    check_chunk_size,
)
from repro.cpu.trace import TraceInstruction
from repro.cpu.workloads import WorkloadProfile, iter_relocated_trace, iter_trace

#: Per-member PC offset: members keep disjoint code regions so the
#: I-cache and branch predictor see each phase's own footprint rather
#: than accidental aliasing between members.
MEMBER_PC_STRIDE = 0x0100_0000

#: Code space between the base code region and the stack region bounds
#: how many members can get disjoint PC regions.
MAX_MEMBERS = 8


@dataclass(frozen=True)
class PhasedProfile:
    """A composite workload cycling through member profiles.

    ``phase_lengths[i]`` is the instruction count member ``i``
    contributes per visit; the schedule cycles ``members[0], members[1],
    ...`` until the requested trace length is reached. Data addresses
    are deliberately *not* segregated per member: the members model
    phases of one program sharing one heap/stack, so cross-phase data
    reuse (and its cache behavior) is part of the model.
    """

    name: str
    members: Tuple[WorkloadProfile, ...]
    phase_lengths: Tuple[int, ...]
    suite: str = "phased"
    description: str = ""

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError(
                f"{self.name}: a phased workload needs >= 2 members, "
                f"got {len(self.members)}"
            )
        if len(self.members) > MAX_MEMBERS:
            raise ValueError(
                f"{self.name}: at most {MAX_MEMBERS} members supported, "
                f"got {len(self.members)}"
            )
        if len(self.phase_lengths) != len(self.members):
            raise ValueError(
                f"{self.name}: {len(self.phase_lengths)} phase lengths for "
                f"{len(self.members)} members"
            )
        for length in self.phase_lengths:
            if length < 1:
                raise ValueError(
                    f"{self.name}: phase lengths must be >= 1, got {length}"
                )
        names = [member.name for member in self.members]
        if len(set(names)) != len(names):
            raise ValueError(
                f"{self.name}: member names must be distinct, got {names} "
                f"(each member's trace stream is derived from its name)"
            )

    @property
    def reference_fus(self) -> int:
        """FU count covering every phase: the widest member's need."""
        return max(member.reference_fus for member in self.members)

    def phase_schedule(
        self, num_instructions: int
    ) -> List[Tuple[int, int]]:
        """The ``(member_index, length)`` phases covering a trace.

        Cycles through members in order; the final phase is truncated to
        land exactly on ``num_instructions``.
        """
        if num_instructions < 1:
            raise ValueError(
                f"num_instructions must be >= 1, got {num_instructions}"
            )
        schedule: List[Tuple[int, int]] = []
        remaining = num_instructions
        index = 0
        while remaining > 0:
            member = index % len(self.members)
            length = min(self.phase_lengths[member], remaining)
            schedule.append((member, length))
            remaining -= length
            index += 1
        return schedule

    def _member_columns(
        self, index: int, contribution: int, seed: int, chunk_size: int
    ) -> Iterator[Columns]:
        """Member ``index``'s continuous columnar stream, relocated.

        Generated lazily through
        :func:`~repro.cpu.workloads.iter_relocated_trace` (column-backed
        chunks from the compiled walker; object-backed ones project
        their columns) so at most one chunk of each member's source
        exists at a time. The per-member PC offset moves every ``pc``
        and every non-zero ``target``; the compiled walker applies it
        to its program tables, not to each instruction.
        """
        for chunk in iter_relocated_trace(
            self.members[index],
            contribution,
            seed,
            chunk_size,
            index * MEMBER_PC_STRIDE,
        ):
            yield chunk.columns

    def _interleave_columns(
        self, num_instructions: int, seed: int, chunk_size: int
    ) -> Iterator[TraceChunk]:
        """The composite stream as column-backed chunks.

        The phase schedule consumes each member's resumed columnar
        stream in turn, copying phase-sized *slices* between column
        buffers instead of instruction objects; output chunks are
        emitted at exactly ``chunk_size`` rows (remainder last), the
        same boundaries :func:`~repro.cpu.stream.chunk_instructions`
        produces, so the chunk stream — not just the instruction
        stream — is identical to the object interleave's.
        """
        schedule = self.phase_schedule(num_instructions)
        contributions = [0] * len(self.members)
        for member, length in schedule:
            contributions[member] += length
        streams: List[Optional[Iterator[Columns]]] = [
            self._member_columns(index, contributions[index], seed, chunk_size)
            if contributions[index]
            else None
            for index in range(len(self.members))
        ]
        # Per-member cursor into its current source chunk's columns.
        current: List[Optional[Columns]] = [None] * len(self.members)
        cursor = [0] * len(self.members)
        out = tuple(array(code) for code in COLUMN_TYPECODES)
        emitted = 0
        for member, length in schedule:
            need = length
            while need:
                cols = current[member]
                if cols is None or cursor[member] >= len(cols[0]):
                    stream = streams[member]
                    assert stream is not None  # scheduled => has a stream
                    cols = current[member] = next(stream)
                    cursor[member] = 0
                start = cursor[member]
                take = min(need, len(cols[0]) - start)
                stop = start + take
                for buf, col in zip(out, cols):
                    buf += col[start:stop]
                cursor[member] = stop
                need -= take
                while len(out[0]) >= chunk_size:
                    head = tuple(buf[:chunk_size] for buf in out)
                    for buf in out:
                        del buf[:chunk_size]
                    yield TraceChunk.from_columns(emitted, head)
                    emitted += chunk_size
        if len(out[0]):
            yield TraceChunk.from_columns(emitted, out)

    def _member_stream(
        self, index: int, contribution: int, seed: int, chunk_size: int
    ) -> Iterator[TraceInstruction]:
        """Member ``index``'s single continuous stream, relocated.

        Executable object-path reference for :meth:`_member_columns` —
        :meth:`build_trace` still consumes it, and the columnar
        equivalence gate checks the two interleaves digest-identical.
        """
        offset = index * MEMBER_PC_STRIDE
        for chunk in iter_trace(
            self.members[index], contribution, seed=seed, chunk_size=chunk_size
        ):
            for instr in chunk.instructions:
                yield TraceInstruction(
                    instr.op,
                    instr.pc + offset,
                    dep1=instr.dep1,
                    dep2=instr.dep2,
                    address=instr.address,
                    taken=instr.taken,
                    target=instr.target + offset if instr.target else 0,
                )

    def _interleave(
        self, num_instructions: int, seed: int, chunk_size: int
    ) -> Iterator[TraceInstruction]:
        """The composite stream: the phase schedule consuming each
        member's resumed stream in turn."""
        schedule = self.phase_schedule(num_instructions)
        contributions = [0] * len(self.members)
        for member, length in schedule:
            contributions[member] += length
        streams = [
            self._member_stream(index, contributions[index], seed, chunk_size)
            if contributions[index]
            else None
            for index in range(len(self.members))
        ]
        for member, length in schedule:
            stream = streams[member]
            assert stream is not None  # scheduled members have streams
            for _ in range(length):
                yield next(stream)

    def iter_trace_chunks(
        self,
        num_instructions: int,
        seed: int,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Iterator[TraceChunk]:
        """Stream the composite trace in bounded memory (the chunked hook
        :func:`~repro.cpu.workloads.iter_trace` dispatches to).

        Memory is bounded by one output chunk plus one source chunk per
        member, independent of ``num_instructions``. Chunks are
        column-backed (the batch kernel feeds them zero-copy); the
        instruction stream is identical to :meth:`build_trace`'s, which
        the columnar equivalence gate enforces digest-for-digest.
        """
        return self._interleave_columns(
            num_instructions, seed, check_chunk_size(chunk_size)
        )

    def build_trace(
        self, num_instructions: int, seed: int
    ) -> List[TraceInstruction]:
        """The composite committed-path trace, built from objects.

        The executable reference for :meth:`iter_trace_chunks`, which
        :func:`~repro.cpu.workloads.generate_trace` materializes; the
        columnar equivalence gate checks the two digest-identical.
        Deterministic in (profile, num_instructions, seed). Dependency
        distances are kept verbatim: a distance reaching past a phase
        boundary lands on another member's instructions, which is the
        composite-trace analogue of cross-phase register reuse and stays
        within :func:`~repro.cpu.trace.validate_trace`'s bounds because
        a member's in-stream position never exceeds its global position.
        """
        return list(
            self._interleave(num_instructions, seed, DEFAULT_CHUNK_SIZE)
        )
