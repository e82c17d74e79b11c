"""Branch prediction: combining (bimodal + gshare) predictor, RAS, BTB.

Replicates Table 2's front end: a 2048-entry bimodal table, a 2-level
gshare with 10 bits of global history indexing a 4096-entry pattern table,
a 1024-entry meta (chooser) table, a 32-entry return-address stack, and a
4096-set 2-way BTB. All direction tables use 2-bit saturating counters.

The trace-driven pipeline never executes a wrong path, so the predictor's
role is to decide *when fetch stalls*: a direction mispredict (or a taken
branch missing in the BTB) costs the machine the resolve-plus-redirect
penalty.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cpu.config import BranchPredictorConfig

# 2-bit saturating counter encoding: 0,1 predict not-taken; 2,3 taken.
_COUNTER_MAX = 3
_TAKEN_THRESHOLD = 2
_WEAKLY_TAKEN = 2
_WEAKLY_NOT_TAKEN = 1


class SaturatingCounterTable:
    """A table of 2-bit saturating counters indexed modulo its size."""

    def __init__(self, entries: int, initial: int = _WEAKLY_NOT_TAKEN):
        if entries < 1 or entries & (entries - 1):
            raise ValueError(f"entries must be a positive power of two, got {entries}")
        if not 0 <= initial <= _COUNTER_MAX:
            raise ValueError(f"initial counter must be in [0, 3], got {initial}")
        self._mask = entries - 1
        self._table: List[int] = [initial] * entries

    def predict(self, index: int) -> bool:
        """True = predict taken."""
        return self._table[index & self._mask] >= _TAKEN_THRESHOLD

    def update(self, index: int, taken: bool) -> None:
        """Train the counter toward the observed outcome."""
        slot = index & self._mask
        value = self._table[slot]
        if taken:
            if value < _COUNTER_MAX:
                self._table[slot] = value + 1
        elif value > 0:
            self._table[slot] = value - 1

    def counter(self, index: int) -> int:
        """Raw counter value (for tests)."""
        return self._table[index & self._mask]


class ReturnAddressStack:
    """Fixed-depth RAS; pushes wrap around (oldest entry overwritten)."""

    def __init__(self, entries: int):
        if entries < 1:
            raise ValueError(f"RAS needs >= 1 entry, got {entries}")
        self._stack: List[int] = [0] * entries
        self._top = 0
        self._entries = entries
        self._occupancy = 0

    def push(self, return_pc: int) -> None:
        self._stack[self._top] = return_pc
        self._top = (self._top + 1) % self._entries
        self._occupancy = min(self._occupancy + 1, self._entries)

    def pop(self) -> Optional[int]:
        """Predicted return target; None when the stack is empty."""
        if self._occupancy == 0:
            return None
        self._top = (self._top - 1) % self._entries
        self._occupancy -= 1
        return self._stack[self._top]

    @property
    def occupancy(self) -> int:
        return self._occupancy


class BranchTargetBuffer:
    """Set-associative BTB storing targets of taken branches (LRU)."""

    def __init__(self, sets: int, ways: int):
        if sets < 1 or sets & (sets - 1):
            raise ValueError(f"sets must be a positive power of two, got {sets}")
        if ways < 1:
            raise ValueError(f"ways must be >= 1, got {ways}")
        self._set_mask = sets - 1
        self._ways = ways
        # Per set: ordered dict tag -> target, most recent last.
        self._sets: List[dict] = [dict() for _ in range(sets)]

    def lookup(self, pc: int) -> Optional[int]:
        """Predicted target, or None on a BTB miss."""
        word = pc >> 2
        entry = self._sets[word & self._set_mask]
        tag = word >> (self._set_mask.bit_length())
        target = entry.get(tag)
        if target is not None:
            # Refresh LRU position.
            del entry[tag]
            entry[tag] = target
        return target

    def install(self, pc: int, target: int) -> None:
        """Record a taken branch's target, evicting LRU on conflict."""
        word = pc >> 2
        entry = self._sets[word & self._set_mask]
        tag = word >> (self._set_mask.bit_length())
        if tag in entry:
            del entry[tag]
        elif len(entry) >= self._ways:
            oldest = next(iter(entry))
            del entry[oldest]
        entry[tag] = target


class CombiningPredictor:
    """The full Table 2 front-end predictor.

    ``predict`` returns (direction, btb_hit); ``update`` trains the
    component tables, the meta chooser, and the global history. The meta
    table counts toward the gshare component when its counter is high.
    """

    def __init__(self, config: Optional[BranchPredictorConfig] = None):
        if config is None:
            config = BranchPredictorConfig()
        self.config = config
        self.bimodal = SaturatingCounterTable(config.bimodal_entries)
        self.pattern = SaturatingCounterTable(config.level2_entries)
        self.meta = SaturatingCounterTable(config.meta_entries)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.btb = BranchTargetBuffer(config.btb_sets, config.btb_ways)
        self._history = 0
        self._history_mask = (1 << config.history_bits) - 1
        self.lookups = 0
        self.direction_mispredicts = 0
        self.btb_misses_on_taken = 0

    # -- prediction ----------------------------------------------------------

    @staticmethod
    def _pc_index(pc: int) -> int:
        """Instructions are 4-byte aligned; drop the dead offset bits."""
        return pc >> 2

    def _gshare_index(self, pc: int) -> int:
        return (self._pc_index(pc) ^ self._history) & (
            self.config.level2_entries - 1
        )

    def predict_direction(self, pc: int) -> bool:
        """Chooser-selected direction prediction for a conditional branch."""
        index = self._pc_index(pc)
        use_gshare = self.meta.predict(index)
        if use_gshare:
            return self.pattern.predict(self._gshare_index(pc))
        return self.bimodal.predict(index)

    # -- training --------------------------------------------------------------

    def update(self, pc: int, taken: bool, target: int) -> bool:
        """Train on a resolved conditional branch; returns mispredicted.

        A branch counts as mispredicted when the chooser-selected
        direction is wrong, or when it is taken but the BTB had no target
        (the fetch unit could not have redirected).
        """
        self.lookups += 1
        index = self._pc_index(pc)
        bimodal_pred = self.bimodal.predict(index)
        gshare_index = self._gshare_index(pc)
        gshare_pred = self.pattern.predict(gshare_index)
        use_gshare = self.meta.predict(index)
        predicted = gshare_pred if use_gshare else bimodal_pred

        stored_target = self.btb.lookup(pc)
        mispredicted = predicted != taken
        if taken and stored_target != target:
            self.btb_misses_on_taken += 1
            mispredicted = True
        if predicted != taken:
            self.direction_mispredicts += 1

        # Train the chooser toward whichever component was right (only
        # when they disagree, as in McFarling's combining predictor).
        if bimodal_pred != gshare_pred:
            self.meta.update(index, gshare_pred == taken)
        self.bimodal.update(index, taken)
        self.pattern.update(gshare_index, taken)
        if taken:
            self.btb.install(pc, target)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask
        return mispredicted

    def update_call(self, pc: int, return_pc: int, target: int) -> bool:
        """A call: always taken; push the return address; never mispredicts
        direction, but pays for a BTB miss on its first sighting."""
        self.lookups += 1
        stored_target = self.btb.lookup(pc)
        self.ras.push(return_pc)
        self.btb.install(pc, target)
        if stored_target != target:
            self.btb_misses_on_taken += 1
            return True
        return False

    def update_return(self, pc: int, target: int) -> bool:
        """A return predicts through the RAS; mispredicts when the stack
        is empty or holds a stale address (wraparound)."""
        self.lookups += 1
        predicted = self.ras.pop()
        if predicted != target:
            self.direction_mispredicts += 1
            return True
        return False

    @property
    def mispredict_rate(self) -> float:
        """Mispredictions (direction + BTB-on-taken) per lookup."""
        if self.lookups == 0:
            return 0.0
        return (
            self.direction_mispredicts + self.btb_misses_on_taken
        ) / self.lookups
