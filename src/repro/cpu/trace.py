"""Dynamic instruction traces.

A trace is a sequence of :class:`TraceInstruction` — the committed-path
instruction stream the pipeline model consumes, chunk by chunk
(:mod:`repro.cpu.stream`). Traces carry everything the timing model
needs: op class, PC (for the front end), register dependency
*distances* (how many instructions back each source operand's producer
is), data addresses for memory ops, and resolved control-flow outcomes
for branches.

Dependency distances, rather than architectural register numbers, are the
standard representation for synthetic traces: they directly encode the
dataflow the issue logic sees after renaming removes false dependencies.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Sequence

from repro.cpu.isa import OpClass


class TraceInstruction:
    """One committed instruction. ``__slots__`` keeps traces compact."""

    __slots__ = ("op", "pc", "dep1", "dep2", "address", "taken", "target")

    def __init__(
        self,
        op: OpClass,
        pc: int,
        dep1: int = 0,
        dep2: int = 0,
        address: int = 0,
        taken: bool = False,
        target: int = 0,
    ):
        self.op = op
        self.pc = pc
        self.dep1 = dep1
        self.dep2 = dep2
        self.address = address
        self.taken = taken
        self.target = target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceInstruction(op={OpClass(self.op).name}, pc={self.pc:#x}, "
            f"dep1={self.dep1}, dep2={self.dep2}, address={self.address:#x}, "
            f"taken={self.taken}, target={self.target:#x})"
        )

    def __eq__(self, other: object) -> bool:
        """Field-for-field equality, so whole traces compare with ``==``.

        The scenario subsystem's determinism gate (same seed => identical
        traces) is asserted through this.
        """
        if not isinstance(other, TraceInstruction):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot)
            for slot in self.__slots__
        )

    __hash__ = None  # mutable: identity hashing would be a correctness trap


def trace_digest(trace: Iterable[TraceInstruction]) -> str:
    """SHA-256 over every field of every instruction, in order.

    A process-portable fingerprint of a trace: two runs (even in separate
    interpreters) generated the same instruction stream iff their digests
    match. The cross-process determinism tests compare these where whole
    traces cannot cross the process boundary.
    """
    digest = hashlib.sha256()
    slots = TraceInstruction.__slots__
    for instr in trace:
        # Derived from __slots__ (like __eq__) so the two equality
        # notions can never silently diverge when a field is added; every
        # slot is int-valued (op is an IntEnum, taken a bool), and int()
        # keeps the encoding canonical across Python versions.
        digest.update(
            (
                ",".join(str(int(getattr(instr, slot))) for slot in slots)
                + ";"
            ).encode()
        )
    return digest.hexdigest()


def validate_trace(trace: Sequence[TraceInstruction]) -> None:
    """Sanity-check a trace; raises ValueError on malformed entries.

    Checks that dependency distances point inside the trace, memory ops
    carry addresses, and control ops carry targets when taken.
    """
    for index, instr in enumerate(trace):
        if instr.dep1 < 0 or instr.dep2 < 0:
            raise ValueError(f"instruction {index}: negative dependency distance")
        if instr.dep1 > index or instr.dep2 > index:
            raise ValueError(
                f"instruction {index}: dependency distance reaches before the trace"
            )
        op = instr.op
        if op in (OpClass.LOAD, OpClass.STORE) and instr.address < 0:
            raise ValueError(f"instruction {index}: memory op with negative address")
        if op in (OpClass.BRANCH, OpClass.CALL, OpClass.RETURN):
            if instr.taken and instr.target <= 0:
                raise ValueError(
                    f"instruction {index}: taken control op without a target"
                )
        if instr.pc < 0:
            raise ValueError(f"instruction {index}: negative pc")


def trace_mix(trace: Iterable[TraceInstruction]) -> dict:
    """Fraction of instructions per op class (for workload validation)."""
    counts: dict = {}
    total = 0
    for instr in trace:
        counts[instr.op] = counts.get(instr.op, 0) + 1
        total += 1
    if total == 0:
        return {}
    return {op: count / total for op, count in counts.items()}


def dependency_distances(trace: Sequence[TraceInstruction]) -> List[int]:
    """All non-zero dependency distances (for workload validation)."""
    distances: List[int] = []
    for instr in trace:
        if instr.dep1:
            distances.append(instr.dep1)
        if instr.dep2:
            distances.append(instr.dep2)
    return distances
