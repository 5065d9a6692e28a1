"""Tier stepping adapters: one uniform single-step surface per engine.

The interpreter resumes through ``run(budget=)`` and the compiled tier
through its step-variant codegen; the trace-replay path has no machine
state at all.
A :class:`Stepper` wraps each behind the same five observations the
lockstep harness compares at every retired-count barrier:

* ``halted`` / ``retired`` / ``pc`` — where execution stands;
* ``regs()`` / ``memory()`` / ``rng_state()`` / ``outputs()`` — the
  architectural state, as plain Python values.

With a :class:`~repro.core.PBSConfig` every tier drives its own
:class:`~repro.core.PBSEngine`, and two more observations join the
barrier comparison: ``pbs_stats()`` (the ``PBSStats`` counters) and
``pbs_state()`` (a comparable view of ``save_state()``: Prob-BTB keys
and records, SwapTable use, in-flight queues, Context-Table slots and
the blacklist).

``compares_*`` class flags declare which observations a tier can
honestly make: the replay tier, for instance, sees only the committed
control flow that survived the trace wire format, so it opts out of
register/memory/RNG comparison instead of reporting garbage.

Adding a tier hook = subclassing :class:`Stepper`, implementing
``step_to`` with *exact* ``max_instructions`` parity (raise
``ExecutionLimitExceeded`` at the interpreter's retired count — the
differential tests pin this boundary), and registering it in
``STEPPERS``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from ..core import PBSConfig, PBSEngine
from ..engines.compiled import CompiledExecutor
from ..functional import EventBatch, Executor
from ..isa.opcodes import Op
from ..trace.format import pack_batch, unpack_events_batch

#: Default instruction budget for differential runs: generated programs
#: retire a few thousand instructions, so anything that gets here is a
#: runaway loop worth failing fast on.
DIFF_MAX_INSTRUCTIONS = 200_000

#: Named PBS design points for PBS-attached lockstep: the paper's
#: default, a one-entry Prob-BTB, no context support (Prob-BTB indexed
#: by PC alone) and no blacklisting after a Const-Val mismatch.
PBS_CONFIGS: Dict[str, Dict] = {
    "default": {},
    "one-branch": {"num_branches": 1},
    "no-context": {"context_support": False},
    "no-blacklist": {"blacklist_on_const_mismatch": False},
}


def pbs_state_view(engine: PBSEngine) -> Dict[str, str]:
    """``engine.save_state()`` as plain, comparable strings per table.

    Rendered with ``repr`` so NaN comparison constants compare equal and
    a delta reads as the table contents.
    """
    state = engine.save_state()
    return {
        "btb": repr(sorted(
            (key, entry.const_val, entry.record, entry.num_values,
             entry.last_use)
            for key, entry in state["btb"].entries.items()
        )),
        "swap": repr(sorted(state["swap"].by_key.items())),
        "inflight": repr(sorted(
            (key, list(queue))
            for key, queue in state["inflight"].queues.items() if queue
        )),
        "context": repr([
            None if slot is None else (
                slot.loop_pc, slot.last_pc, slot.function_pc, slot.counter,
                slot.sequence)
            for slot in state["context"]["slots"]
        ] + [state["context"]["sequence"]]),
        "blacklist": repr(sorted(state["blacklist"])),
    }


class Stepper:
    """One tier being driven in lockstep (see module docstring)."""

    name = "?"
    compares_registers = True
    compares_memory = True
    compares_rng = True
    compares_outputs = True
    #: Whether the tier can carry an attached trace sink through
    #: ``step_to`` (the sink-attached lockstep mode: a fresh
    #: :class:`~repro.branch.PredictorHarness` per tier, tallies
    #: compared at every barrier).
    supports_sink = False
    #: The attached PBS engine, when the tier runs PBS-attached.
    pbs: Optional[PBSEngine] = None

    def step_to(self, target: int) -> None:
        """Advance until ``retired == target``, HALT, or the limit."""
        raise NotImplementedError

    def sink_stats(self) -> "Dict | None":
        """The attached sink's tally as a plain dict, or ``None`` when
        no comparable sink rides this tier."""
        return None

    def pbs_stats(self) -> "Dict | None":
        """The attached engine's ``PBSStats`` as a dict, or ``None``."""
        return None if self.pbs is None else self.pbs.stats.as_dict()

    def pbs_state(self) -> "Dict | None":
        """:func:`pbs_state_view` of the attached engine, or ``None``."""
        return None if self.pbs is None else pbs_state_view(self.pbs)

    @property
    def halted(self) -> bool:
        raise NotImplementedError

    @property
    def retired(self) -> int:
        raise NotImplementedError

    @property
    def pc(self) -> int:
        raise NotImplementedError

    def regs(self) -> List:
        raise NotImplementedError

    def memory(self) -> List:
        raise NotImplementedError

    def rng_state(self) -> int:
        raise NotImplementedError

    def outputs(self) -> Dict[int, List]:
        raise NotImplementedError


class _ExecutorStepper(Stepper):
    """Shared adapter for executors with the ``run(budget=)`` protocol
    (the interpreter and the compiled tier's step variant)."""

    executor_class: type = None
    supports_sink = True

    def __init__(self, program, seed: int = 0,
                 max_instructions: int = DIFF_MAX_INSTRUCTIONS,
                 sink=None, pbs: Optional[PBSConfig] = None):
        if pbs is not None:
            self.pbs = PBSEngine(pbs)
        self._ex = self.executor_class(
            program, seed=seed, max_instructions=max_instructions,
            pbs=self.pbs,
        )
        self._sink = sink

    def step_to(self, target: int) -> None:
        budget = target - self._ex.retired
        if budget > 0 and not self._ex.halted:
            self._ex.run(sink=self._sink, budget=budget)

    def sink_stats(self):
        stats = getattr(self._sink, "stats", None)
        if stats is None:
            return None
        return stats.as_dict()

    @property
    def halted(self) -> bool:
        return self._ex.halted

    @property
    def retired(self) -> int:
        return self._ex.retired

    @property
    def pc(self) -> int:
        return self._ex.pc

    def regs(self) -> List:
        return list(self._ex.state.regs)

    def memory(self) -> List:
        return list(self._ex.state.memory)

    def rng_state(self) -> int:
        return self._ex.rng.state()

    def outputs(self) -> Dict[int, List]:
        return self._ex.state.outputs


class InterpStepper(_ExecutorStepper):
    """The reference tier: ``repro.functional.Executor``."""

    name = "interp"
    executor_class = Executor


class CompiledStepper(_ExecutorStepper):
    """The compiled tier's per-PC step-variant codegen."""

    name = "compiled"
    executor_class = CompiledExecutor


class ReplayStepper(Stepper):
    """The trace tier: committed control flow through the wire format.

    Runs the interpreter with the stepper itself as the batch sink: it
    packs every batch with :func:`repro.trace.format.pack_batch` and
    decodes the records back with
    :func:`~repro.trace.format.unpack_events_batch` — so
    ``pc``/``retired``/``halted`` are read from the *round-tripped*
    rows, putting the trace encoding itself under the lockstep
    contract.  Registers, memory and the RNG are not part of a trace,
    so this tier only compares control flow and outputs.
    """

    name = "replay"
    compares_registers = False
    compares_memory = False
    compares_rng = False

    def __init__(self, program, seed: int = 0,
                 max_instructions: int = DIFF_MAX_INSTRUCTIONS,
                 pbs: Optional[PBSConfig] = None):
        # PBS steers the committed path, so the replayed trace comes
        # from a PBS-attached interpreter; its engine is compared too.
        if pbs is not None:
            self.pbs = PBSEngine(pbs)
        self._ex = Executor(
            program, seed=seed, max_instructions=max_instructions,
            pbs=self.pbs,
        )
        self._count = 0
        self._last_op = None
        self._next_pc = 0
        self._pack_cache = {}
        self._decoded = EventBatch()

    def consume_batch(self, batch: EventBatch) -> None:
        decoded = self._decoded
        unpack_events_batch(b"".join(pack_batch(batch, self._pack_cache)),
                            decoded)
        if decoded.pcs:
            self._count += len(decoded)
            self._last_op = decoded.ops[-1]
            self._next_pc = decoded.next_pcs[-1]
        decoded.clear()

    def step_to(self, target: int) -> None:
        budget = target - self._ex.retired
        if budget > 0 and not self._ex.halted:
            self._ex.run(sink=self, budget=budget)

    @property
    def halted(self) -> bool:
        return self._last_op is Op.HALT

    @property
    def retired(self) -> int:
        return self._count

    @property
    def pc(self) -> int:
        return self._next_pc

    def regs(self) -> List:
        return []

    def memory(self) -> List:
        return []

    def rng_state(self) -> int:
        return 0

    def outputs(self) -> Dict[int, List]:
        return self._ex.state.outputs


#: tier name -> stepper class; the harness and CLI resolve tiers here.
STEPPERS: Dict[str, Type[Stepper]] = {
    cls.name: cls
    for cls in (InterpStepper, CompiledStepper, ReplayStepper)
}
