"""The committed-path event stream and its one delivery protocol.

Every producer (the interpreter, the compiled tier, trace replay) hands
retired instructions to a *sink* as :class:`EventBatch` columns through
the sink's ``consume_batch`` method.  Timing models, MPKI counters,
trace writers and analysis passes are such sinks; they observe the
stream and never re-execute semantics.  A :class:`TraceEvent` is one row
of a batch; :func:`per_event` adapts a callable that wants rows one at
a time.
"""

from __future__ import annotations

from typing import Optional, Tuple


class ProbMode:
    """How a PROB_JMP instance was handled.

    Attributes:
        NOT_PROB: a regular (non-probabilistic) instruction.
        PREDICTED: a probabilistic branch treated as a regular branch —
            either PBS is disabled, the instance is in the bootstrap phase,
            or PBS fell back (Const-Val mismatch, capacity, deep call).
        PBS_HIT: direction supplied by the Prob-BTB at fetch; the branch
            never consults the predictor and can never mispredict.
    """

    NOT_PROB = 0
    PREDICTED = 1
    PBS_HIT = 2


class TraceEvent:
    """One retired instruction on the committed path (one batch row)."""

    __slots__ = (
        "pc",
        "op",
        "op_class",
        "dest",
        "srcs",
        "is_cond_branch",
        "taken",
        "target",
        "next_pc",
        "addr",
        "is_store",
        "prob_mode",
    )

    def __init__(
        self,
        pc: int,
        op: int,
        op_class: int,
        dest: int,
        srcs: Tuple[int, ...],
        is_cond_branch: bool = False,
        taken: bool = False,
        target: Optional[int] = None,
        next_pc: int = 0,
        addr: Optional[int] = None,
        is_store: bool = False,
        prob_mode: int = ProbMode.NOT_PROB,
    ):
        self.pc = pc
        self.op = op
        self.op_class = op_class
        self.dest = dest
        self.srcs = srcs
        self.is_cond_branch = is_cond_branch
        self.taken = taken
        self.target = target
        self.next_pc = next_pc
        self.addr = addr
        self.is_store = is_store
        self.prob_mode = prob_mode

    def __repr__(self) -> str:
        extra = ""
        if self.is_cond_branch:
            extra = f" {'T' if self.taken else 'NT'}->{self.target}"
            if self.prob_mode == ProbMode.PREDICTED:
                extra += " prob"
            elif self.prob_mode == ProbMode.PBS_HIT:
                extra += " pbs-hit"
        return f"<ev pc={self.pc} op={self.op}{extra}>"


class EventBatch:
    """A columnar run of retired instructions (structure of arrays).

    Producers (the pre-decoded interpreter, the compiled tier, trace
    replay) fill the parallel column lists and hand the batch to the
    sink's ``consume_batch`` method.  Row ``i`` across all twelve lists
    describes one retired instruction, field for field what
    :meth:`events` builds as a :class:`TraceEvent`.

    Ownership contract: the producer may reuse the batch object (via
    :meth:`clear`) as soon as ``consume_batch`` returns, so consumers
    must not retain references to the batch or its columns.
    """

    __slots__ = (
        "pcs",
        "ops",
        "classes",
        "dests",
        "srcs",
        "conds",
        "takens",
        "targets",
        "next_pcs",
        "addrs",
        "stores",
        "prob_modes",
    )

    def __init__(self):
        self.pcs = []
        self.ops = []
        self.classes = []
        self.dests = []
        self.srcs = []
        self.conds = []
        self.takens = []
        self.targets = []
        self.next_pcs = []
        self.addrs = []
        self.stores = []
        self.prob_modes = []

    def __len__(self) -> int:
        return len(self.pcs)

    def clear(self) -> None:
        self.pcs.clear()
        self.ops.clear()
        self.classes.clear()
        self.dests.clear()
        self.srcs.clear()
        self.conds.clear()
        self.takens.clear()
        self.targets.clear()
        self.next_pcs.clear()
        self.addrs.clear()
        self.stores.clear()
        self.prob_modes.clear()

    def append_event(self, event: "TraceEvent") -> None:
        """Append one :class:`TraceEvent` as a row."""
        self.pcs.append(event.pc)
        self.ops.append(event.op)
        self.classes.append(event.op_class)
        self.dests.append(event.dest)
        self.srcs.append(event.srcs)
        self.conds.append(event.is_cond_branch)
        self.takens.append(event.taken)
        self.targets.append(event.target)
        self.next_pcs.append(event.next_pc)
        self.addrs.append(event.addr)
        self.stores.append(event.is_store)
        self.prob_modes.append(event.prob_mode)

    def events(self):
        """Explode the batch into one :class:`TraceEvent` per row."""
        make = TraceEvent
        for i in range(len(self.pcs)):
            yield make(
                self.pcs[i],
                self.ops[i],
                self.classes[i],
                self.dests[i],
                self.srcs[i],
                is_cond_branch=self.conds[i],
                taken=self.takens[i],
                target=self.targets[i],
                next_pc=self.next_pcs[i],
                addr=self.addrs[i],
                is_store=self.stores[i],
                prob_mode=self.prob_modes[i],
            )

    @classmethod
    def from_events(cls, events) -> "EventBatch":
        batch = cls()
        for event in events:
            batch.append_event(event)
        return batch

    def __repr__(self) -> str:
        return f"<EventBatch n={len(self.pcs)}>"


class per_event:
    """Adapt a callable taking one :class:`TraceEvent` into a batch sink.

    Each batch is exploded with :meth:`EventBatch.events` and the rows
    are handed to ``callback`` in stream order::

        events = []
        executor.run(sink=per_event(events.append))

    Rows arrive when a batch is delivered, not as each instruction
    retires; to observe live executor state at every instruction, drive
    ``executor.step(1, sink=per_event(...))``.
    """

    __slots__ = ("callback",)

    def __init__(self, callback):
        self.callback = callback

    def consume_batch(self, batch: EventBatch) -> None:
        callback = self.callback
        for event in batch.events():
            callback(event)


def batch_consumer(sink):
    """``sink.consume_batch``; a ``TypeError`` naming :func:`per_event`
    when ``sink`` is a plain callable."""
    consume = getattr(sink, "consume_batch", None)
    if consume is None:
        raise TypeError(
            f"{sink!r} is not a batch sink (it has no consume_batch); "
            "wrap a per-event callable in per_event(...)"
        )
    return consume
