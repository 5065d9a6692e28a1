"""Interval/dataflow timing model of an out-of-order superscalar core.

The model replays the committed-path trace (like Sniper's interval core
model, which the paper itself uses) and computes cycle counts from the
four first-order mechanisms PBS interacts with:

* **front-end bandwidth** — at most ``width`` instructions enter the
  window per cycle;
* **branch mispredictions** — a mispredicted branch stalls fetch until it
  resolves (its dataflow completion) plus the front-end refill penalty;
  PBS-hit branches never mispredict (direction known at fetch);
* **the ROB window** — an instruction cannot dispatch until the
  instruction ``rob_size`` older has committed (in order, ``width`` per
  cycle), so long-latency producers stall the window;
* **dataflow** — issue waits for source registers; functional-unit
  latencies per opcode class; load latency from the cache hierarchy.

Issue-port contention is deliberately not modelled (interval-model
approximation); with realistic widths the bandwidth and window constraints
dominate.

The core is a columnar sink: :meth:`OoOCore.consume_batch` runs the
shared :func:`~repro.branch.harness.branch_step` over an
:class:`~repro.functional.EventBatch`, then times its rows in one loop.
:meth:`OoOCore.feed` is a one-row adapter for per-event callers.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from ..branch.base import BranchPredictor
from ..branch.harness import branch_step
from ..functional.trace import EventBatch, TraceEvent
from ..isa.opcodes import OpClass
from ..memory import MemoryHierarchy
from .config import CoreConfig
from .metrics import CoreStats


class OoOCore:
    """A trace sink computing cycles, IPC and branch statistics."""

    def __init__(
        self,
        config: CoreConfig,
        predictor: BranchPredictor,
        hierarchy: Optional[MemoryHierarchy] = None,
        filter_probabilistic: bool = False,
        oracle_pcs=frozenset(),
        pbs_inserts_history: bool = True,
    ):
        self.config = config
        self.predictor = predictor
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy()
        self.filter_probabilistic = filter_probabilistic
        #: Branches at these PCs resolve from a decoupled predicate queue
        #: (control-flow decoupling's branch-on-queue): never mispredicted
        #: and invisible to the predictor.
        self.oracle_pcs = oracle_pcs
        #: Shift PBS-known directions into predictor history (free in
        #: hardware; preserves correlation for regular branches).
        self.pbs_inserts_history = pbs_inserts_history
        self.stats = CoreStats(config.name, predictor_name=predictor.name)

        self._latency: Dict[int, int] = dict(config.latencies)
        self._reg_ready: Dict[int, int] = {}
        self._frontend_ready = 0
        self._dispatch_cycle = 0
        self._dispatch_slots = 0
        self._commit_cycle = 0
        self._commit_slots = 0
        self._commit_times = deque()

    # ------------------------------------------------------------------
    def __call__(self, event: TraceEvent) -> None:
        self.feed(event)

    def feed(self, event: TraceEvent) -> None:
        """One-row adapter over :meth:`consume_batch`."""
        self.consume_batch(EventBatch.from_events((event,)))

    def consume_batch(self, batch: EventBatch) -> None:
        """Time one batch of committed-path rows.

        The branch step runs first over the whole batch: predictor
        state never depends on timing, so its mispredicted rows are
        known before the timing loop reaches them.
        """
        stats = self.stats
        mispredicted = branch_step(
            self.predictor,
            stats.branches,
            batch,
            self.filter_probabilistic,
            self.pbs_inserts_history,
            self.oracle_pcs,
        )
        misses = iter(mispredicted)
        next_miss = next(misses, -1)
        stats.instructions += len(batch.pcs)

        config = self.config
        width = config.width
        rob_size = config.rob_size
        penalty = config.mispredict_penalty
        latencies = self._latency
        store_latency = latencies[OpClass.STORE]
        access = self.hierarchy.access
        reg_ready = self._reg_ready
        get_ready = reg_ready.get
        commit_times = self._commit_times
        retire_oldest = commit_times.popleft
        enter_window = commit_times.append
        LOAD = OpClass.LOAD
        STORE = OpClass.STORE

        frontend_ready = self._frontend_ready
        dispatch_cycle = self._dispatch_cycle
        dispatch_slots = self._dispatch_slots
        commit_cycle = self._commit_cycle
        commit_slots = self._commit_slots
        branch_stall_cycles = 0

        for i, (srcs, op_class, dest, addr) in enumerate(
            zip(batch.srcs, batch.classes, batch.dests, batch.addrs)
        ):
            # ----- dispatch: front-end bandwidth + ROB occupancy -------
            dispatch = frontend_ready
            if len(commit_times) >= rob_size:
                # The slot frees the cycle after its occupant commits.
                freed = retire_oldest() + 1
                if freed > dispatch:
                    dispatch = freed
            if dispatch > dispatch_cycle:
                dispatch_cycle = dispatch
                dispatch_slots = 1
            elif dispatch_slots >= width:
                dispatch_cycle += 1
                dispatch_slots = 1
            else:
                dispatch_slots += 1
            dispatch = dispatch_cycle

            # ----- issue & execute: dataflow --------------------------
            ready = dispatch + 1
            for reg in srcs:
                when = get_ready(reg, 0)
                if when > ready:
                    ready = when
            if op_class == LOAD:
                complete = ready + access(addr)
            elif op_class == STORE:
                access(addr)
                complete = ready + store_latency
            else:
                complete = ready + latencies[op_class]
            if dest >= 0:
                reg_ready[dest] = complete

            # ----- mispredicted branch: stall fetch until it resolves --
            if i == next_miss:
                next_miss = next(misses, -1)
                frontend_ready = complete + penalty
                # CPI-stack attribution: the front-end sits idle from the
                # cycle after the branch entered the window until it
                # resolves and the pipeline refills.
                stall = frontend_ready - (dispatch + 1)
                if stall > 0:
                    branch_stall_cycles += stall

            # ----- commit: in order, width per cycle -------------------
            if complete > commit_cycle:
                commit_cycle = complete
                commit_slots = 1
            elif commit_slots >= width:
                commit_cycle += 1
                commit_slots = 1
            else:
                commit_slots += 1
            enter_window(commit_cycle)

        stats.branch_stall_cycles += branch_stall_cycles
        self._frontend_ready = frontend_ready
        self._dispatch_cycle = dispatch_cycle
        self._dispatch_slots = dispatch_slots
        self._commit_cycle = commit_cycle
        self._commit_slots = commit_slots

    # ------------------------------------------------------------------
    def finalize(self) -> CoreStats:
        """Close accounting and return the stats object."""
        stats = self.stats
        stats.cycles = self._commit_cycle if self._commit_cycle else 1
        return stats
