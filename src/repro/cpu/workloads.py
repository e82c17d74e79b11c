"""Synthetic benchmark workloads standing in for SPEC/Olden binaries.

The paper drives its evaluation with nine integer benchmarks (Table 3).
We do not have those binaries or a SimpleScalar EIO environment, so each
benchmark is modeled as a :class:`WorkloadProfile`: a parameterized
program whose *dynamic* behavior — instruction mix, dataflow parallelism,
branch predictability, code footprint, and memory locality — is tuned to
land the simulated machine in the regime the paper reports for that
benchmark (its IPC and functional-unit needs).

The generator first builds a static control-flow graph (basic blocks with
conditional-branch/call/return terminators and a static code layout) and
then *walks* it, so the PC stream has genuine loop/call structure: the
gshare predictor sees learnable patterns, the BTB and RAS see real reuse,
and the I-cache sees the profile's code footprint. Dependency distances
and memory addresses are layered onto the walk from the profile's
dataflow and locality models.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.cpu import _trace_build
from repro.cpu.isa import OpClass
from repro.cpu.stream import (
    DEFAULT_CHUNK_SIZE,
    TraceChunk,
    check_chunk_size,
    chunk_instructions,
)
from repro.cpu.trace import TraceInstruction
from repro.util.lookup import unknown_name_message
from repro.util.rng import DeterministicRng

#: Minimum INT_ALU share of the body mix. Every real integer program has
#: plain ALU work, and reserving it keeps the deck builder's per-class
#: rounding (at most +0.5 slot per class) strictly inside the deck.
_MIN_INT_ALU_FRACTION = 0.02

# Virtual-address regions for the three locality classes.
_CODE_BASE = 0x0040_0000
_STACK_BASE = 0x1000_0000
_STREAM_BASE = 0x2000_0000
_HEAP_BASE = 0x3000_0000


@dataclass(frozen=True)
class WorkloadProfile:
    """Everything that characterizes one synthetic benchmark.

    The ``reference_*`` fields record the paper's Table 3 values for the
    benchmark; the experiment harness reports measured-vs-reference.
    """

    name: str
    suite: str
    description: str
    # Instruction mix for basic-block bodies (control ops are terminators
    # and are governed by the block structure). Fractions of body ops;
    # whatever remains after mult/load/store is INT_ALU.
    frac_int_mult: float
    frac_load: float
    frac_store: float
    # Control structure.
    mean_block_size: float
    call_fraction: float
    loop_branch_fraction: float
    fixed_trip_fraction: float
    mean_loop_trips: float
    biased_taken_prob: float
    random_branch_fraction: float
    #: fraction of non-loop branch sites that are indirect (switch
    #: dispatch): their dynamic target varies over a small set of blocks.
    #: Besides realism (parsers and compilers dispatch constantly), this
    #: keeps the CFG walk ergodic — without it the walk can settle into a
    #: tiny orbit of hot blocks and never reach calls or cold code.
    indirect_branch_fraction: float
    # Dataflow.
    mean_dep_distance: float
    first_source_prob: float
    second_source_prob: float
    load_chain_prob: float
    # Memory locality. Heap accesses split into a hot subset (reused,
    # cache-resident) and cold sweeps over the full footprint; the hot
    # fraction is the knob that sets steady-state miss rates within the
    # short simulation windows (see DESIGN.md, Substitutions).
    stack_bytes: int
    stream_bytes: int
    heap_bytes: int
    heap_hot_bytes: int
    heap_hot_prob: float
    stack_prob: float
    stream_prob: float
    stream_stride: int
    # Code footprint.
    num_blocks: int
    num_functions: int
    function_blocks: int
    # Paper-reported values (Table 3).
    reference_max_ipc: float
    reference_ipc: float
    reference_fus: int
    instruction_window: str
    #: Fraction of body ops that are floating point (split between FP_ALU
    #: and FP_MULT). The paper's nine benchmarks are integer codes, so the
    #: field defaults to zero and their traces are unchanged; the scenario
    #: families use it to model fp-dense workloads whose integer units sit
    #: idle while the FP pool works.
    frac_fp: float = 0.0

    #: Fraction fields that must individually lie in [0, 1].
    _FRACTION_FIELDS = (
        "frac_int_mult", "frac_load", "frac_store", "frac_fp",
        "call_fraction", "loop_branch_fraction",
        "fixed_trip_fraction", "indirect_branch_fraction",
        "stack_prob", "stream_prob",
        "first_source_prob", "second_source_prob",
        "load_chain_prob", "random_branch_fraction",
        "heap_hot_prob", "biased_taken_prob",
    )

    def __post_init__(self) -> None:
        for name in self._FRACTION_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{self.name}: {name} must be a fraction in [0, 1], "
                    f"got {value}"
                )
        body_fracs = (
            self.frac_int_mult + self.frac_load + self.frac_store + self.frac_fp
        )
        # The 2% floor is not cosmetic: it guarantees the deck builder's
        # four per-class round() calls can never overflow the deck size
        # (each rounds up by at most half a slot), so the dealt mix
        # always matches the declared fractions.
        if body_fracs > 1.0 - _MIN_INT_ALU_FRACTION:
            raise ValueError(
                f"{self.name}: body op fractions (frac_int_mult + frac_load "
                f"+ frac_store + frac_fp) sum to {body_fracs}; the remainder "
                f"is INT_ALU, which needs at least {_MIN_INT_ALU_FRACTION} "
                f"of the mix"
            )
        if self.stack_prob + self.stream_prob > 1.0:
            raise ValueError(
                f"{self.name}: locality probabilities exceed 1 "
                f"(stack_prob {self.stack_prob} + stream_prob "
                f"{self.stream_prob} = {self.stack_prob + self.stream_prob}; "
                f"the remainder is the heap share)"
            )
        # A positive stride keeps the C walker and the reference walk on
        # one stream: on a negative offset Python's % floors where C's
        # truncates toward zero.
        if self.stream_stride < 1:
            raise ValueError(
                f"{self.name}: stream_stride must be >= 1, "
                f"got {self.stream_stride}"
            )
        if self.mean_block_size < 2.0:
            raise ValueError(f"{self.name}: blocks must average >= 2 instructions")
        if self.mean_dep_distance < 1.0:
            raise ValueError(f"{self.name}: mean dependency distance must be >= 1")
        if self.num_blocks < 4 or self.num_functions < 1 or self.function_blocks < 1:
            raise ValueError(f"{self.name}: degenerate code structure")
        if not 1 <= self.reference_fus <= 4:
            raise ValueError(f"{self.name}: reference FU count must be in [1, 4]")

    @property
    def frac_int_alu(self) -> float:
        return (
            1.0
            - self.frac_int_mult
            - self.frac_load
            - self.frac_store
            - self.frac_fp
        )


# -- static program construction ---------------------------------------------


_TERM_BRANCH = 0
_TERM_CALL = 1
_TERM_RETURN = 2


class _Block:
    """A basic block of the static program."""

    __slots__ = ("start_pc", "body", "terminator", "term_pc", "branch")

    def __init__(self, start_pc: int, body: List[OpClass], terminator: int):
        self.start_pc = start_pc
        self.body = body
        self.terminator = terminator
        self.term_pc = start_pc + 4 * len(body)
        self.branch: Optional[_StaticBranch] = None


class _StaticBranch:
    """A static conditional branch: its target and outcome generator."""

    __slots__ = (
        "target_block",
        "is_loop",
        "trip_mean",
        "fixed_trips",
        "taken_prob",
        "trips_left",
        "indirect_targets",
    )

    def __init__(
        self,
        target_block: int,
        is_loop: bool,
        trip_mean: float,
        taken_prob: float,
        fixed_trips: int = 0,
        indirect_targets=None,
    ):
        self.target_block = target_block
        self.is_loop = is_loop
        self.trip_mean = trip_mean
        self.fixed_trips = fixed_trips
        self.taken_prob = taken_prob
        self.trips_left = 0
        self.indirect_targets = indirect_targets

    def next_outcome(self, rng: DeterministicRng) -> bool:
        """Loop branches run a trip-count pattern; others are Bernoulli.

        Fixed-trip loops produce a periodic taken/not-taken pattern a
        global-history predictor learns exactly; geometric-trip loops have
        data-dependent exits that mispredict roughly once per execution of
        the loop, as in real code.
        """
        if self.is_loop:
            if self.trips_left == 0:
                if self.fixed_trips:
                    self.trips_left = self.fixed_trips
                else:
                    self.trips_left = rng.geometric(self.trip_mean)
            self.trips_left -= 1
            return self.trips_left > 0  # exit (not taken) on the last trip
        return rng.chance(self.taken_prob)


class _StaticProgram:
    """The CFG: main-region blocks plus call targets (functions)."""

    def __init__(self, profile: WorkloadProfile, rng: DeterministicRng):
        self.profile = profile
        self.blocks: List[_Block] = []
        self.function_entries: List[int] = []
        self.call_targets: List[int] = []
        self._deck: List[OpClass] = []
        self._deck_pos = 0
        self._build(rng)
        # Each call site targets one statically-chosen function, like a
        # direct call in real code (so the BTB can predict it).
        for index, block in enumerate(self.blocks[: profile.num_blocks]):
            if block.terminator == _TERM_CALL:
                self.call_targets[index] = self.function_entries[
                    rng.randint(0, len(self.function_entries) - 1)
                ]

    _DECK_SIZE = 512

    def _build_deck(self, rng: DeterministicRng) -> List[OpClass]:
        """A shuffled deck matching the mix exactly.

        Dealing block bodies from a deck (instead of independent draws)
        keeps the composition of the few *hot* loop blocks representative
        of the intended mix, which independent draws would not.
        """
        profile = self.profile
        deck: List[OpClass] = []
        deck += [OpClass.LOAD] * round(profile.frac_load * self._DECK_SIZE)
        deck += [OpClass.STORE] * round(profile.frac_store * self._DECK_SIZE)
        deck += [OpClass.INT_MULT] * round(profile.frac_int_mult * self._DECK_SIZE)
        fp_ops = round(profile.frac_fp * self._DECK_SIZE)
        deck += [OpClass.FP_MULT] * (fp_ops // 2)
        deck += [OpClass.FP_ALU] * (fp_ops - fp_ops // 2)
        deck += [OpClass.INT_ALU] * (self._DECK_SIZE - len(deck))
        return rng.shuffled(deck)

    def _draw_body(self, rng: DeterministicRng, size: int) -> List[OpClass]:
        body: List[OpClass] = []
        for _ in range(size):
            if self._deck_pos >= len(self._deck):
                self._deck = self._build_deck(rng)
                self._deck_pos = 0
            body.append(self._deck[self._deck_pos])
            self._deck_pos += 1
        return body

    def _build(self, rng: DeterministicRng) -> None:
        profile = self.profile
        pc = _CODE_BASE
        main_blocks = profile.num_blocks

        # Main region: blocks terminated by conditional branches or calls.
        for index in range(main_blocks):
            size = max(1, rng.geometric(profile.mean_block_size - 1.0))
            body = self._draw_body(rng, size)
            if rng.chance(profile.call_fraction):
                terminator = _TERM_CALL
            else:
                terminator = _TERM_BRANCH
            block = _Block(pc, body, terminator)
            pc = block.term_pc + 4
            self.blocks.append(block)
            self.call_targets.append(-1)  # filled in after functions exist

        # Function region: each function is a run of blocks ending in a
        # return; intermediate blocks use conditional branches.
        for _ in range(profile.num_functions):
            entry = len(self.blocks)
            self.function_entries.append(entry)
            for position in range(profile.function_blocks):
                size = max(1, rng.geometric(profile.mean_block_size - 1.0))
                body = self._draw_body(rng, size)
                is_last = position == profile.function_blocks - 1
                terminator = _TERM_RETURN if is_last else _TERM_BRANCH
                block = _Block(pc, body, terminator)
                pc = block.term_pc + 4
                self.blocks.append(block)

        # Attach static branch descriptors (targets and biases). Branches
        # inside a function stay within that function so every dynamic
        # call eventually reaches the function's return block.
        for index, block in enumerate(self.blocks):
            if block.terminator != _TERM_BRANCH:
                continue
            in_function = index >= main_blocks
            if in_function:
                offset = index - main_blocks
                entry = main_blocks + (
                    offset // profile.function_blocks
                ) * profile.function_blocks
                last = entry + profile.function_blocks - 1
            else:
                entry, last = 0, main_blocks - 1

            is_loop = rng.chance(profile.loop_branch_fraction)
            if is_loop:
                # Mostly self-loops; an occasional short span creates a
                # nested loop. Wider spans are avoided: nested trip
                # counts multiply, and a single hot nest can swallow the
                # whole simulation window.
                span = 0 if rng.chance(0.7) else rng.randint(1, 2)
                target = max(entry, index - span)
                fixed = 0
                if rng.chance(profile.fixed_trip_fraction):
                    fixed = rng.randint(3, 8)  # within gshare's 10-bit reach
                block.branch = _StaticBranch(
                    target_block=target,
                    is_loop=True,
                    trip_mean=max(1.0, profile.mean_loop_trips),
                    taken_prob=0.0,
                    fixed_trips=fixed,
                )
            elif not in_function and rng.chance(
                profile.indirect_branch_fraction
            ):
                # Indirect dispatch: the taken target varies over a small
                # set of blocks anywhere in the main region.
                targets = [
                    rng.randint(0, main_blocks - 1) for _ in range(6)
                ]
                block.branch = _StaticBranch(
                    target_block=targets[0],
                    is_loop=False,
                    trip_mean=1.0,
                    taken_prob=0.85,
                    indirect_targets=targets,
                )
            else:
                # Forward branch skipping a few blocks (if/else shape).
                if index < last:
                    target = min(last, index + rng.randint(2, 6))
                else:
                    target = (index + 2) % max(1, main_blocks)
                if rng.chance(profile.random_branch_fraction):
                    taken_prob = 0.35 + 0.3 * rng.uniform()  # near 50/50
                elif rng.chance(0.5):
                    taken_prob = profile.biased_taken_prob
                else:
                    taken_prob = 1.0 - profile.biased_taken_prob
                block.branch = _StaticBranch(
                    target_block=target,
                    is_loop=False,
                    trip_mean=1.0,
                    taken_prob=taken_prob,
                )


# -- dynamic walk --------------------------------------------------------------


class _AddressGenerator:
    """Produces load/store addresses from the profile's locality model."""

    def __init__(self, profile: WorkloadProfile, rng: DeterministicRng):
        self.profile = profile
        self.rng = rng
        self._stream_offset = 0

    def next_address(self) -> int:
        profile = self.profile
        roll = self.rng.uniform()
        if roll < profile.stack_prob:
            span = max(8, profile.stack_bytes)
            return _STACK_BASE + (self.rng.randint(0, span - 8) & ~7)
        if roll < profile.stack_prob + profile.stream_prob:
            address = _STREAM_BASE + self._stream_offset
            self._stream_offset = (
                self._stream_offset + profile.stream_stride
            ) % max(profile.stream_stride, profile.stream_bytes)
            return address
        if self.rng.chance(profile.heap_hot_prob):
            span = max(8, profile.heap_hot_bytes)
        else:
            span = max(8, profile.heap_bytes)
        return _HEAP_BASE + (self.rng.randint(0, span - 8) & ~7)


def _walk_trace(
    profile: WorkloadProfile,
    num_instructions: int,
    seed: int,
) -> Iterator[TraceInstruction]:
    """The dynamic CFG walk, one instruction at a time.

    The *executable reference* for the instruction stream: readable,
    one draw shape per helper, one yield per instruction. The C trace
    walker (``_trace_kernel.c``, driven by :func:`_drain_walk_c`)
    replays it bit-exactly, and the digest-identity gate in
    ``tests/test_columnar.py`` pins the two together draw for draw.
    Where the walker cannot run, :func:`iter_trace` chunks this walk
    directly.
    """
    structure_rng = DeterministicRng(seed).child(profile.name, "structure")
    walk_rng = DeterministicRng(seed).child(profile.name, "walk")
    data_rng = DeterministicRng(seed).child(profile.name, "data")

    program = _StaticProgram(profile, structure_rng)
    addresses = _AddressGenerator(profile, data_rng)

    position = 0
    current = 0
    call_stack: List[int] = []
    last_load_index = -1
    main_blocks = profile.num_blocks

    def draw_dep(position: int) -> int:
        """A dependency distance, capped to stay inside the trace.

        A fraction of instructions (immediates, loop counters held in
        already-ready registers) have no in-flight register source at
        all; they are the independent work the out-of-order window mines.
        """
        if not data_rng.chance(profile.first_source_prob):
            return 0
        distance = data_rng.geometric(profile.mean_dep_distance)
        return min(distance, position)

    while position < num_instructions:
        block = program.blocks[current]
        pc = block.start_pc
        for op in block.body:
            if position >= num_instructions:
                return
            dep1 = draw_dep(position)
            dep2 = draw_dep(position) if data_rng.chance(
                profile.second_source_prob
            ) else 0
            address = 0
            if op == OpClass.LOAD:
                address = addresses.next_address()
                if (
                    last_load_index >= 0
                    and data_rng.chance(profile.load_chain_prob)
                ):
                    dep1 = position - last_load_index
                last_load_index = position
            elif op == OpClass.STORE:
                address = addresses.next_address()
            yield TraceInstruction(
                op, pc, dep1=dep1, dep2=dep2, address=address
            )
            position += 1
            pc += 4

        # Terminator.
        if position >= num_instructions:
            return
        if block.terminator == _TERM_CALL:
            target_entry = program.call_targets[current]
            target_block = program.blocks[target_entry]
            yield TraceInstruction(
                OpClass.CALL,
                block.term_pc,
                dep1=draw_dep(position),
                taken=True,
                target=target_block.start_pc,
            )
            position += 1
            call_stack.append((current + 1) % main_blocks)
            current = target_entry
        elif block.terminator == _TERM_RETURN:
            if call_stack:
                return_block = call_stack.pop()
            else:
                return_block = walk_rng.randint(0, main_blocks - 1)
            target_pc = program.blocks[return_block].start_pc
            yield TraceInstruction(
                OpClass.RETURN,
                block.term_pc,
                taken=True,
                target=target_pc,
            )
            position += 1
            current = return_block
        else:
            branch = block.branch
            assert branch is not None  # every branch block got a descriptor
            taken = branch.next_outcome(walk_rng)
            if branch.indirect_targets is not None and taken:
                branch.target_block = branch.indirect_targets[
                    walk_rng.randint(0, len(branch.indirect_targets) - 1)
                ]
            if taken:
                next_block = branch.target_block
            else:
                limit = main_blocks if current < main_blocks else len(program.blocks)
                next_block = current + 1
                if next_block >= limit:
                    next_block = 0 if current < main_blocks else current
            target_pc = program.blocks[branch.target_block].start_pc
            yield TraceInstruction(
                OpClass.BRANCH,
                block.term_pc,
                dep1=draw_dep(position),
                taken=taken,
                target=target_pc,
            )
            position += 1
            current = next_block


def _trace_kernel_usable(profile: WorkloadProfile) -> bool:
    """Should this walk run on the compiled trace walker?

    Yes whenever the walker builds and the profile fits its fixed-width
    assumptions: randbelow spans inside 32 bits and 4-byte ``array``
    int/uint codes on this platform. Otherwise :func:`iter_trace` falls
    back to the reference walk, which emits the same stream.
    """
    if array("i").itemsize != 4 or array("I").itemsize != 4:
        return False
    limit = 2**32 - 1
    spans = (
        max(8, profile.stack_bytes) - 8,
        max(8, profile.heap_hot_bytes) - 8,
        max(8, profile.heap_bytes) - 8,
    )
    if any(span >= limit for span in spans):
        return False
    if profile.num_blocks >= 2**31:
        return False
    return _trace_build.trace_kernel_available()


class _ProgramTables(NamedTuple):
    """A static program flattened into the C trace walker's tables.

    Immutable once packed: ``repro_trace_create`` copies every table
    and keeps the walk's mutable state (loop trip counters, the current
    indirect targets) on its own side. The tables depend only on
    (profile, seed), because the structure RNG is its own child stream,
    so one packing serves every trace length and chunk size.
    """

    cfg_f: array
    start_pc: array
    term_pc: array
    terminator: array
    call_target: array
    body_off: array
    body_len: array
    body_ops: array
    br_is_loop: array
    br_trip_mean: array
    br_fixed: array
    br_taken_prob: array
    br_target: array
    br_indirect: array
    br_has_ind: array


def _pack_program(program: _StaticProgram) -> _ProgramTables:
    """Flatten a freshly built static program into the walker's tables."""
    profile = program.profile
    blocks = program.blocks
    nblocks = len(blocks)

    start_pc = array("q", [b.start_pc for b in blocks])
    term_pc = array("q", [b.term_pc for b in blocks])
    terminator = array("B", [b.terminator for b in blocks])
    call_target = array(
        "i",
        [
            program.call_targets[i] if i < len(program.call_targets) else 0
            for i in range(nblocks)
        ],
    )

    body_off_list: List[int] = []
    body_len_list: List[int] = []
    body_ops_list: List[int] = []
    for block in blocks:
        body_off_list.append(len(body_ops_list))
        body_len_list.append(len(block.body))
        body_ops_list += block.body
    body_off = array("i", body_off_list)
    body_len = array("i", body_len_list)
    body_ops = array("B", body_ops_list)

    is_loop: List[int] = []
    trip_mean: List[float] = []
    fixed: List[int] = []
    taken_prob: List[float] = []
    target0: List[int] = []
    has_ind: List[int] = []
    indirect: List[int] = []
    for block in blocks:
        branch = block.branch
        if branch is None:
            is_loop.append(0)
            trip_mean.append(1.0)
            fixed.append(0)
            taken_prob.append(0.0)
            target0.append(0)
            has_ind.append(0)
            indirect += [0] * _trace_build.INDIRECT_TARGETS
            continue
        is_loop.append(1 if branch.is_loop else 0)
        trip_mean.append(branch.trip_mean)
        fixed.append(branch.fixed_trips)
        taken_prob.append(branch.taken_prob)
        target0.append(branch.target_block)
        if branch.indirect_targets is not None:
            has_ind.append(1)
            indirect += list(branch.indirect_targets)
        else:
            has_ind.append(0)
            indirect += [0] * _trace_build.INDIRECT_TARGETS

    return _ProgramTables(
        cfg_f=array("d", [
            profile.first_source_prob,
            profile.second_source_prob,
            profile.mean_dep_distance,
            profile.load_chain_prob,
            profile.stack_prob,
            profile.stack_prob + profile.stream_prob,
            profile.heap_hot_prob,
        ]),
        start_pc=start_pc,
        term_pc=term_pc,
        terminator=terminator,
        call_target=call_target,
        body_off=body_off,
        body_len=body_len,
        body_ops=body_ops,
        br_is_loop=array("B", is_loop),
        br_trip_mean=array("d", trip_mean),
        br_fixed=array("q", fixed),
        br_taken_prob=array("d", taken_prob),
        br_target=array("i", target0),
        br_indirect=array("i", indirect),
        br_has_ind=array("B", has_ind),
    )


@functools.lru_cache(maxsize=16)
def _program_tables(profile: WorkloadProfile, seed: int) -> _ProgramTables:
    """The packed static program for (profile, seed), built at most once
    while it stays among the 16 most recently used.

    The quick suite's 81 simulations share 9 programs; the nine
    benchmarks' tables total ~313 KB (11-78 KB each). Keyed on the whole
    frozen profile, not its name, so two profiles sharing a name cannot
    collide. ``lru_cache`` is thread-safe (``repro serve``
    runs batches on several threads) and builds outside its lock; two
    threads racing on one key build identical tables.
    """
    structure_rng = DeterministicRng(seed).child(profile.name, "structure")
    return _pack_program(_StaticProgram(profile, structure_rng))


def _drain_walk_c(
    profile: WorkloadProfile,
    num_instructions: int,
    seed: int,
    chunk_size: int,
    pc_offset: int = 0,
) -> Iterator[TraceChunk]:
    """Drain the dynamic walk through the compiled trace walker.

    Hands the packed static program to the walker, transplants the walk
    and data generators' MT19937 states (``Random.getstate()`` — the C
    side has no seeding logic to diverge), and pulls column-backed
    chunks straight out of C buffers sized to the rows still to come.
    Emits the stream of :func:`_walk_trace`, cut every ``chunk_size``
    rows. The walker reads every PC and branch target from the blocks'
    ``start_pc``/``term_pc``, so ``pc_offset`` relocates the stream by
    relocating those two tables once.
    """
    tables = _program_tables(profile, seed)
    if pc_offset:
        # A relocated copy: the cached tables serve every trace of
        # (profile, seed).
        tables = tables._replace(
            start_pc=array("q", [pc + pc_offset for pc in tables.start_pc]),
            term_pc=array("q", [pc + pc_offset for pc in tables.term_pc]),
        )
    walk_rng = DeterministicRng(seed).child(profile.name, "walk")
    data_rng = DeterministicRng(seed).child(profile.name, "data")
    lib = _trace_build.trace_library()
    cfg_i = array("q", [
        num_instructions,
        profile.num_blocks,
        max(8, profile.stack_bytes) - 8,
        max(8, profile.heap_hot_bytes) - 8,
        max(8, profile.heap_bytes) - 8,
        profile.stream_stride,
        max(profile.stream_stride, profile.stream_bytes),
        _STACK_BASE,
        _STREAM_BASE,
        _HEAP_BASE,
    ])

    # The raw generator states: 624 words + the cursor, per stream. The
    # pointer casts do NOT keep their source buffers alive, so every
    # array must outlive the create call (the tables live in ``tables``).
    mt_walk = array("I", walk_rng._random.getstate()[1])
    mt_data = array("I", data_rng._random.getstate()[1])

    f64, i64, i32, u8, u32 = (
        _trace_build.f64_ptr,
        _trace_build.i64_ptr,
        _trace_build.i32_ptr,
        _trace_build.u8_ptr,
        _trace_build.u32_ptr,
    )
    handle = lib.repro_trace_create(
        f64(tables.cfg_f), i64(cfg_i), u32(mt_walk), u32(mt_data),
        len(tables.start_pc), i64(tables.start_pc), i64(tables.term_pc),
        u8(tables.terminator), i32(tables.call_target),
        i32(tables.body_off), i32(tables.body_len),
        u8(tables.body_ops), len(tables.body_ops),
        u8(tables.br_is_loop), f64(tables.br_trip_mean),
        i64(tables.br_fixed), f64(tables.br_taken_prob),
        i32(tables.br_target), i32(tables.br_indirect),
        u8(tables.br_has_ind),
    )
    if not handle:
        raise MemoryError("trace kernel allocation failed")
    try:
        emitted = 0
        while emitted < num_instructions:
            want = min(chunk_size, num_instructions - emitted)
            op = array("B", bytes(want))
            pc = array("q", bytes(8 * want))
            dep1 = array("q", bytes(8 * want))
            dep2 = array("q", bytes(8 * want))
            address = array("q", bytes(8 * want))
            taken = array("B", bytes(want))
            target = array("q", bytes(8 * want))
            rows = lib.repro_trace_fill(
                handle, want, u8(op), i64(pc), i64(dep1), i64(dep2),
                i64(address), u8(taken), i64(target),
            )
            if rows < 0:
                raise MemoryError("trace kernel ran out of memory")
            if rows == 0:
                break
            if rows < want:
                op = op[:rows]
                pc = pc[:rows]
                dep1 = dep1[:rows]
                dep2 = dep2[:rows]
                address = address[:rows]
                taken = taken[:rows]
                target = target[:rows]
            yield TraceChunk.from_columns(
                emitted, (op, pc, dep1, dep2, address, taken, target)
            )
            emitted += rows
            if rows < want:
                break
    finally:
        lib.repro_trace_destroy(handle)


def _walk_chunks(
    profile: WorkloadProfile,
    num_instructions: int,
    seed: int,
    chunk_size: int,
    pc_offset: int = 0,
) -> Iterator[TraceChunk]:
    """A plain profile's walk as contiguous ``chunk_size`` chunks.

    The compiled walker drains it 1-2 orders of magnitude faster than
    the reference and reuses the packed static program across traces;
    where it cannot run, the reference walk is cut into object-backed
    chunks. Same stream either way. A generator, so the walker build
    and the static-program build happen on the first pull, which
    :meth:`~repro.cpu.simulator.Simulator.run` charges to the
    ``generate`` stage.
    """
    if _trace_kernel_usable(profile):
        yield from _drain_walk_c(
            profile, num_instructions, seed, chunk_size, pc_offset
        )
    else:
        walk = _walk_trace(profile, num_instructions, seed)
        if pc_offset:
            walk = _relocated(walk, pc_offset)
        yield from chunk_instructions(walk, chunk_size)


def _relocated(
    walk: Iterator[TraceInstruction], pc_offset: int
) -> Iterator[TraceInstruction]:
    """The reference walk's fresh instructions, moved by ``pc_offset``."""
    for instr in walk:
        instr.pc += pc_offset
        if instr.target:
            instr.target += pc_offset
        yield instr


def iter_trace(
    profile: WorkloadProfile,
    num_instructions: int,
    seed: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[TraceChunk]:
    """Stream a committed-path trace as contiguous fixed-size chunks.

    The chunked iterator protocol behind every simulation: at most
    ``chunk_size`` instructions exist per yielded block, and both
    pipeline kernels pull blocks only as they need them, so peak memory
    is independent of ``num_instructions``. The instruction
    stream — values and order — depends only on (profile,
    num_instructions, seed); chunking only decides where the block
    boundaries fall.

    Plain profiles come from the compiled trace walker, as
    column-backed chunks the batch kernel consumes zero-copy; without
    it (no C compiler, or a profile outside its fixed widths) from the
    reference walk, as object-backed chunks. Composite workloads
    provide an ``iter_trace_chunks(num_instructions, seed, chunk_size)``
    hook (e.g.
    :meth:`repro.scenarios.phased.PhasedProfile.iter_trace_chunks`,
    which streams its member sources).
    """
    if num_instructions < 1:
        raise ValueError(
            f"num_instructions must be >= 1, got {num_instructions}"
        )
    chunked = getattr(profile, "iter_trace_chunks", None)
    if chunked is not None:
        return chunked(num_instructions, seed, chunk_size=chunk_size)
    return _walk_chunks(
        profile, num_instructions, seed, check_chunk_size(chunk_size)
    )


def iter_relocated_trace(
    profile: WorkloadProfile,
    num_instructions: int,
    seed: int,
    chunk_size: int,
    pc_offset: int,
) -> Iterator[TraceChunk]:
    """:func:`iter_trace` of a plain profile whose code sits ``pc_offset``
    bytes higher.

    Every PC and every branch target moves; a target of 0 means "no
    target" and stays 0, and a real target is never 0. Phased
    composites give each member its own code region this way. The
    compiled walker runs on a relocated copy of the packed static
    program, one pass over its blocks rather than its instructions.
    """
    if num_instructions < 1:
        raise ValueError(
            f"num_instructions must be >= 1, got {num_instructions}"
        )
    return _walk_chunks(
        profile, num_instructions, seed, check_chunk_size(chunk_size), pc_offset
    )


def generate_trace(
    profile: WorkloadProfile,
    num_instructions: int,
    seed: int = 1,
) -> List[TraceInstruction]:
    """Generate a committed-path trace of ``num_instructions`` entries.

    Deterministic in (profile, num_instructions, seed); extending the
    window preserves the prefix's structure (same static program).
    This materializes :func:`iter_trace`'s stream, composite workloads
    included; for bounded memory on long traces, iterate that instead.
    """
    trace: List[TraceInstruction] = []
    for chunk in iter_trace(profile, num_instructions, seed):
        trace += chunk.instructions
    return trace


# -- benchmark definitions (Table 3) -------------------------------------------

_KB = 1024
_MB = 1024 * 1024


def _profile(**kwargs) -> WorkloadProfile:
    return WorkloadProfile(**kwargs)


BENCHMARKS: Dict[str, WorkloadProfile] = {}


def _register(profile: WorkloadProfile) -> None:
    BENCHMARKS[profile.name] = profile


_register(_profile(
    name="health",
    suite="Olden",
    description=(
        "Hierarchical health-care simulation: linked-list traversal with "
        "heavy pointer chasing over a heap that defeats the L2."
    ),
    frac_int_mult=0.05, frac_load=0.32, frac_store=0.12,
    mean_block_size=6.0, call_fraction=0.06,
    loop_branch_fraction=0.35, fixed_trip_fraction=0.50, mean_loop_trips=8.0,
    biased_taken_prob=0.92, random_branch_fraction=0.10, indirect_branch_fraction=0.02,
    mean_dep_distance=3.0, first_source_prob=0.85, second_source_prob=0.35, load_chain_prob=0.6,
    stack_bytes=8 * _KB, stream_bytes=32 * _KB, heap_bytes=8 * _MB,
    heap_hot_bytes=48 * _KB, heap_hot_prob=0.94,
    stack_prob=0.15, stream_prob=0.10, stream_stride=16,
    num_blocks=250, num_functions=12, function_blocks=4,
    reference_max_ipc=0.560, reference_ipc=0.554, reference_fus=2,
    instruction_window="80M-140M",
))

_register(_profile(
    name="mst",
    suite="Olden",
    description=(
        "Minimum spanning tree over a dense graph: hash-table probes with "
        "good locality and wide, bursty integer ILP."
    ),
    frac_int_mult=0.12, frac_load=0.26, frac_store=0.08,
    mean_block_size=8.0, call_fraction=0.05,
    loop_branch_fraction=0.55, fixed_trip_fraction=0.8, mean_loop_trips=16.0,
    biased_taken_prob=0.95, random_branch_fraction=0.02, indirect_branch_fraction=0.01,
    mean_dep_distance=10.0, first_source_prob=0.75, second_source_prob=0.30, load_chain_prob=0.12,
    stack_bytes=8 * _KB, stream_bytes=24 * _KB, heap_bytes=192 * _KB,
    heap_hot_bytes=16 * _KB, heap_hot_prob=0.95,
    stack_prob=0.20, stream_prob=0.45, stream_stride=8,
    num_blocks=150, num_functions=8, function_blocks=3,
    reference_max_ipc=1.748, reference_ipc=1.748, reference_fus=4,
    instruction_window="entire pgm 14M",
))

_register(_profile(
    name="gcc",
    suite="SPEC95 INT",
    description=(
        "Compiler: very large code footprint, branchy control flow with "
        "modest predictability, short dependency chains."
    ),
    frac_int_mult=0.01, frac_load=0.22, frac_store=0.12,
    mean_block_size=5.0, call_fraction=0.08,
    loop_branch_fraction=0.25, fixed_trip_fraction=0.6, mean_loop_trips=11.0,
    biased_taken_prob=0.94, random_branch_fraction=0.03, indirect_branch_fraction=0.03,
    mean_dep_distance=7.0, first_source_prob=0.8, second_source_prob=0.35, load_chain_prob=0.15,
    stack_bytes=16 * _KB, stream_bytes=24 * _KB, heap_bytes=384 * _KB,
    heap_hot_bytes=24 * _KB, heap_hot_prob=0.97,
    stack_prob=0.35, stream_prob=0.25, stream_stride=8,
    num_blocks=600, num_functions=60, function_blocks=5,
    reference_max_ipc=1.622, reference_ipc=1.619, reference_fus=2,
    instruction_window="1650M-1750M",
))

_register(_profile(
    name="gzip",
    suite="SPEC2K INT",
    description=(
        "LZ77 compression: tight loops over streaming buffers, highly "
        "predictable branches, abundant ILP."
    ),
    frac_int_mult=0.13, frac_load=0.22, frac_store=0.10,
    mean_block_size=10.0, call_fraction=0.02,
    loop_branch_fraction=0.60, fixed_trip_fraction=0.9, mean_loop_trips=24.0,
    biased_taken_prob=0.97, random_branch_fraction=0.01, indirect_branch_fraction=0.01,
    mean_dep_distance=12.0, first_source_prob=0.62, second_source_prob=0.25, load_chain_prob=0.05,
    stack_bytes=8 * _KB, stream_bytes=32 * _KB, heap_bytes=256 * _KB,
    heap_hot_bytes=16 * _KB, heap_hot_prob=0.90,
    stack_prob=0.15, stream_prob=0.70, stream_stride=8,
    num_blocks=100, num_functions=6, function_blocks=3,
    reference_max_ipc=2.120, reference_ipc=2.120, reference_fus=4,
    instruction_window="2000M-2050M",
))

_register(_profile(
    name="mcf",
    suite="SPEC2K INT",
    description=(
        "Network-simplex optimizer: pointer chasing across a working set "
        "far beyond the L2, the suite's most memory-bound benchmark."
    ),
    frac_int_mult=0.04, frac_load=0.34, frac_store=0.10,
    mean_block_size=6.0, call_fraction=0.03,
    loop_branch_fraction=0.40, fixed_trip_fraction=0.50, mean_loop_trips=6.0,
    biased_taken_prob=0.92, random_branch_fraction=0.08, indirect_branch_fraction=0.02,
    mean_dep_distance=3.0, first_source_prob=0.88, second_source_prob=0.35, load_chain_prob=0.68,
    stack_bytes=8 * _KB, stream_bytes=32 * _KB, heap_bytes=24 * _MB,
    heap_hot_bytes=48 * _KB, heap_hot_prob=0.94,
    stack_prob=0.08, stream_prob=0.07, stream_stride=8,
    num_blocks=200, num_functions=10, function_blocks=4,
    reference_max_ipc=0.523, reference_ipc=0.503, reference_fus=2,
    instruction_window="1000M-1050M",
))

_register(_profile(
    name="parser",
    suite="SPEC2K INT",
    description=(
        "Link-grammar parser: recursive descent with many calls, mixed "
        "branch behavior, moderate memory pressure."
    ),
    frac_int_mult=0.15, frac_load=0.2, frac_store=0.10,
    mean_block_size=7.0, call_fraction=0.08,
    loop_branch_fraction=0.35, fixed_trip_fraction=0.7, mean_loop_trips=14.0,
    biased_taken_prob=0.95, random_branch_fraction=0.03, indirect_branch_fraction=0.05,
    mean_dep_distance=14.0, first_source_prob=0.64, second_source_prob=0.30, load_chain_prob=0.08,
    stack_bytes=16 * _KB, stream_bytes=24 * _KB, heap_bytes=256 * _KB,
    heap_hot_bytes=16 * _KB, heap_hot_prob=0.97,
    stack_prob=0.35, stream_prob=0.25, stream_stride=8,
    num_blocks=450, num_functions=30, function_blocks=4,
    reference_max_ipc=1.692, reference_ipc=1.692, reference_fus=4,
    instruction_window="2000M-2100M",
))

_register(_profile(
    name="twolf",
    suite="SPEC2K INT",
    description=(
        "Standard-cell placement and routing: mixed arithmetic with some "
        "multiplies, medium predictability and locality."
    ),
    frac_int_mult=0.02, frac_load=0.26, frac_store=0.09,
    mean_block_size=6.5, call_fraction=0.05,
    loop_branch_fraction=0.35, fixed_trip_fraction=0.7, mean_loop_trips=10.0,
    biased_taken_prob=0.95, random_branch_fraction=0.05, indirect_branch_fraction=0.03,
    mean_dep_distance=10.0, first_source_prob=0.8, second_source_prob=0.35, load_chain_prob=0.18,
    stack_bytes=16 * _KB, stream_bytes=16 * _KB, heap_bytes=256 * _KB,
    heap_hot_bytes=16 * _KB, heap_hot_prob=0.96,
    stack_prob=0.30, stream_prob=0.25, stream_stride=8,
    num_blocks=450, num_functions=25, function_blocks=4,
    reference_max_ipc=1.542, reference_ipc=1.475, reference_fus=3,
    instruction_window="1000M-1100M",
))

_register(_profile(
    name="vortex",
    suite="SPEC2K INT",
    description=(
        "Object-oriented database: large but well-behaved code, highly "
        "predictable branches, high sustained ILP."
    ),
    frac_int_mult=0.11, frac_load=0.27, frac_store=0.14,
    mean_block_size=9.0, call_fraction=0.08,
    loop_branch_fraction=0.45, fixed_trip_fraction=0.85, mean_loop_trips=12.0,
    biased_taken_prob=0.97, random_branch_fraction=0.02, indirect_branch_fraction=0.005,
    mean_dep_distance=13.0, first_source_prob=0.62, second_source_prob=0.25, load_chain_prob=0.08,
    stack_bytes=16 * _KB, stream_bytes=16 * _KB, heap_bytes=384 * _KB,
    heap_hot_bytes=16 * _KB, heap_hot_prob=0.95,
    stack_prob=0.40, stream_prob=0.30, stream_stride=8,
    num_blocks=150, num_functions=12, function_blocks=5,
    reference_max_ipc=2.387, reference_ipc=2.387, reference_fus=4,
    instruction_window="2000M-2100M",
))

_register(_profile(
    name="vpr",
    suite="SPEC2K INT",
    description=(
        "FPGA place-and-route: geometric computations with multiplies, "
        "moderately predictable control flow."
    ),
    frac_int_mult=0.015, frac_load=0.25, frac_store=0.08,
    mean_block_size=6.5, call_fraction=0.04,
    loop_branch_fraction=0.35, fixed_trip_fraction=0.7, mean_loop_trips=10.0,
    biased_taken_prob=0.94, random_branch_fraction=0.03, indirect_branch_fraction=0.03,
    mean_dep_distance=10.0, first_source_prob=0.8, second_source_prob=0.35, load_chain_prob=0.15,
    stack_bytes=16 * _KB, stream_bytes=16 * _KB, heap_bytes=256 * _KB,
    heap_hot_bytes=16 * _KB, heap_hot_prob=0.95,
    stack_prob=0.30, stream_prob=0.30, stream_stride=8,
    num_blocks=400, num_functions=20, function_blocks=4,
    reference_max_ipc=1.481, reference_ipc=1.431, reference_fus=3,
    instruction_window="2000M-2100M",
))


def benchmark_names() -> List[str]:
    """The nine benchmarks, in the paper's Table 3 order."""
    return ["health", "mst", "gcc", "gzip", "mcf", "parser", "twolf", "vortex", "vpr"]


def get_benchmark(name: str) -> WorkloadProfile:
    """Look up a benchmark profile by name.

    Unknown names raise with the closest registered names (typo help)
    rather than dumping the whole registry.
    """
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            unknown_name_message("benchmark", name, BENCHMARKS)
        ) from None
