"""Micro-operation classes and their execution latencies.

The trace-driven model only needs operation *classes* (which structural
resources an instruction uses and for how long), not full Alpha opcodes.
Integer ALU ops, multiplies, and branch resolution execute on the integer
FUs — the units whose idle behavior the paper studies. Loads and stores
use the memory ports; floating-point ops use the FP units.
"""

from __future__ import annotations

from enum import IntEnum


class OpClass(IntEnum):
    """Operation classes; IntEnum so traces can store compact ints."""

    INT_ALU = 0
    INT_MULT = 1
    LOAD = 2
    STORE = 3
    BRANCH = 4
    CALL = 5
    RETURN = 6
    FP_ALU = 7
    FP_MULT = 8
    NOP = 9


#: Execution latency (cycles) per op class; memory ops' latencies come from
#: the cache hierarchy instead.
EXECUTION_LATENCY = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MULT: 3,
    OpClass.BRANCH: 1,
    OpClass.CALL: 1,
    OpClass.RETURN: 1,
    OpClass.FP_ALU: 4,
    OpClass.FP_MULT: 4,
    OpClass.NOP: 1,
}

#: Op classes executed by the integer functional units under study.
INT_FU_OPS = frozenset(
    {OpClass.INT_ALU, OpClass.INT_MULT, OpClass.BRANCH, OpClass.CALL, OpClass.RETURN}
)

#: Op classes executed by the floating-point units.
FP_FU_OPS = frozenset({OpClass.FP_ALU, OpClass.FP_MULT})

#: Op classes using the memory ports.
MEMORY_OPS = frozenset({OpClass.LOAD, OpClass.STORE})

#: Op classes that redirect control flow.
CONTROL_OPS = frozenset({OpClass.BRANCH, OpClass.CALL, OpClass.RETURN})

#: Op classes that produce an integer register result.
INT_PRODUCERS = frozenset(
    {OpClass.INT_ALU, OpClass.INT_MULT, OpClass.LOAD, OpClass.CALL}
)

#: Op classes that produce a floating-point register result.
FP_PRODUCERS = frozenset({OpClass.FP_ALU, OpClass.FP_MULT})
