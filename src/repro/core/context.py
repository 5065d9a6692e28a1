"""The Context-Table: loop and function-call context tracking (§V-C1).

PBS must separate executions of the same probabilistic branch reached
through different contexts, and must flush its state when a loop
terminates so a later execution of the loop re-bootstraps cleanly.  The
paper tracks the two innermost loops (detected from backward branches,
after Tubella & González) and one level of function calls inside the
active loop.

Loop detection protocol:

* A **taken backward branch** (target < pc) identifies a loop whose first
  instruction is the branch target (``Loop-PC``); the branch's own address
  is recorded as ``Last-PC`` (and raised if a later backward branch to the
  same Loop-PC sits at a higher address).
* A **not-taken backward branch at or beyond Last-PC** terminates the
  loop: its entry is removed and every PBS table entry associated with it
  is cleared.  If the older of the two tracked loops terminates first,
  both are erased (the paper's simplification).
* Allocating a loop when the table is full evicts the oldest entry
  (clearing its branches).

Function calls: a call made while a loop is active records the call PC in
the entry's ``Function-PC`` field and bumps a 3-bit depth counter; returns
decrement it.  Probabilistic branches are tracked only at depth 0 (in the
loop body) or 1 (inside a function called from the loop body): a branch
is keyed by the context ``(active slot, Function-PC)``, or ``(-1, 0)``
outside every loop (see :meth:`repro.core.PBSEngine.transact`).
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Optional


class _LoopEntry:
    __slots__ = ("loop_pc", "last_pc", "function_pc", "counter", "sequence")

    def __init__(self, loop_pc: int, last_pc: int, sequence: int):
        self.loop_pc = loop_pc
        self.last_pc = last_pc
        self.function_pc = 0
        self.counter = 0
        self.sequence = sequence  # allocation order; larger = newer


class ContextTable:
    """Tracks the two innermost loops plus function-call context.

    ``on_flush`` is invoked with a slot index whenever that slot's PBS
    entries must be cleared (loop termination, eviction).

    Two views of ``slots`` are kept current on allocate, flush,
    :meth:`restore` and :meth:`reset`, so no lookup scans the slots:

    * ``active`` — the most recently allocated live slot, or -1; PBS
      keys probabilistic branches and call depth by it;
    * ``loops`` — Loop-PC -> live entry.  The compiled tier binds this
      dict once per run and handles the common backward branch inline
      (taken into a known loop: raise its ``last_pc``), so it is only
      ever updated in place.
    """

    MAX_COUNTER = 7  # 3-bit depth counter

    def __init__(
        self,
        entries: int = 2,
        max_function_depth: int = 1,
        on_flush: Optional[Callable[[int], None]] = None,
    ):
        self.capacity = entries
        self.max_function_depth = max_function_depth
        self.on_flush = on_flush
        self.slots: List[Optional[_LoopEntry]] = [None] * entries
        self.active = -1
        self.loops: Dict[int, _LoopEntry] = {}
        self._sequence = 0
        self.loops_detected = 0
        self.loops_terminated = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _recache(self) -> None:
        """Rebuild ``loops`` (in place) and ``active`` from the slots."""
        self.loops.clear()
        self.loops.update(
            (entry.loop_pc, entry) for entry in self.slots if entry is not None
        )
        self._reactivate()

    def _reactivate(self) -> None:
        """Point ``active`` at the newest live slot, or -1."""
        active = -1
        newest = -1
        for index, entry in enumerate(self.slots):
            if entry is not None and entry.sequence > newest:
                newest = entry.sequence
                active = index
        self.active = active

    def _flush_slot(self, slot: int) -> None:
        entry = self.slots[slot]
        if entry is not None:
            self.slots[slot] = None
            del self.loops[entry.loop_pc]
            if slot == self.active:
                self._reactivate()
            if self.on_flush is not None:
                self.on_flush(slot)

    def _allocate(self, loop_pc: int, last_pc: int) -> int:
        slots = self.slots
        if self.active < 0:
            # Entering the first loop ends the "no loop" context: PBS
            # entries allocated before any loop was detected (slot -1)
            # belong to a context that has now finished.
            if self.on_flush is not None:
                self.on_flush(-1)
        if None in slots:
            free = slots.index(None)
        else:
            # Evict the oldest entry, clearing its PBS state.
            free = min(range(self.capacity), key=lambda i: slots[i].sequence)
            self.evictions += 1
            self._flush_slot(free)
        self._sequence += 1
        entry = slots[free] = _LoopEntry(loop_pc, last_pc, self._sequence)
        self.loops[loop_pc] = entry
        self.active = free
        self.loops_detected += 1
        return free

    # ------------------------------------------------------------------
    def observe_branch(self, pc: int, taken: bool, target: Optional[int]) -> None:
        """Feed every control-flow transfer (including JMP) through here."""
        if target is None or target >= pc:
            return  # only backward branches matter for loop tracking

        entry = self.loops.get(target)
        if taken:
            if entry is None:
                self._allocate(target, pc)
            elif pc > entry.last_pc:
                entry.last_pc = pc
            return

        # Not-taken backward branch: terminates the loop it belongs to if
        # the branch sits at or beyond the recorded Last-PC.
        if entry is not None and pc >= entry.last_pc:
            self.loops_terminated += 1
            self._flush_slot(self.slots.index(entry))
            # If the terminated loop is older than another live loop that
            # is *nested inside it* we would leave a stale inner loop; the
            # paper erases both when the older one terminates first.
            for index, other in enumerate(self.slots):
                if other is not None and other.sequence > entry.sequence:
                    self.loops_terminated += 1
                    self._flush_slot(index)

    def observe_call(self, pc: int) -> None:
        slot = self.active
        if slot < 0:
            return
        entry = self.slots[slot]
        if entry.counter < self.MAX_COUNTER:
            entry.counter += 1
        if entry.counter == 1:
            entry.function_pc = pc

    def observe_return(self, pc: int) -> None:
        slot = self.active
        if slot < 0:
            return
        entry = self.slots[slot]
        if entry.counter > 0:
            entry.counter -= 1
        if entry.counter == 0:
            entry.function_pc = 0

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the loop/call context for a context switch.

        Slot entries are deep-copied so the snapshot stays valid while
        the live table keeps tracking loops.
        """
        return {
            "slots": copy.deepcopy(self.slots),
            "sequence": self._sequence,
        }

    def restore(self, snapshot: dict) -> None:
        self.slots = copy.deepcopy(snapshot["slots"])
        self._sequence = snapshot["sequence"]
        self._recache()

    def reset(self) -> None:
        for slot in range(self.capacity):
            self._flush_slot(slot)
        self._sequence = 0
