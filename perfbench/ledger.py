"""The traced run's layer ledger: timing proxies around layer calls.

:class:`Tracer` wraps the public entry points of each layer of
``repro`` -- per batch where a layer takes batches, per call otherwise --
from outside the package: it swaps class attributes for timing proxies
on :meth:`install` and puts the originals back on :meth:`uninstall`.  No
file under ``src/`` knows about it.  A proxy that finds its target gone
(renamed by a later refactor) is skipped, and its layer reads zero.

Spans nest on one stack per process.  A layer's *self* time is its span
minus the spans of its children, so the self times of all layers plus
the time no layer span covers add up to the time of the operations.

Sweep workers are forked after :meth:`install`, so they run the proxies
too.  Each spec a worker runs ships its own ledger back to the parent,
attached to the ``RunResult`` it returns (never serialized: the result
JSON is built from the dataclass fields only).  The parent blocks inside
``Executor.map`` while the workers run; worker time is charged to the
pass as busy seconds divided by the worker count, and what is left of
the map's wall time (idle workers, pickling, transport) stays with
``sim.map``.  Raw worker busy seconds are kept separately for the
per-unit costs (``ns_per_*``) and ``sim.worker_util``.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter
from typing import Dict, List

#: Attribute a worker's ledger travels under on its RunResult.
SHIPPED = "_perfbench_ledger"
#: Span wrapping one spec in a worker: its self time is the worker-side
#: Session glue, reported with the unattributed remainder.
WORKER_SPAN = "sim.worker"


class Tracer:
    """Per-process span ledger plus the proxies that feed it."""

    def __init__(self, predictor_keys: Dict[str, str]):
        #: predictor object ``name`` -> short key (``tournament``, ...).
        self.predictor_keys = predictor_keys
        self._patches: List[tuple] = []
        #: span key -> self seconds charged to the pass (wall).
        self.wall: Dict[str, float] = defaultdict(float)
        #: span key -> self seconds of work, summed over processes.
        self.busy: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: span key -> inclusive seconds, in this process.
        self.spans: Dict[str, float] = defaultdict(float)
        #: Child-time accumulators; the bottom one sums top-level spans.
        self._stack: List[float] = [0.0]
        #: Inclusive seconds the pool workers spent on specs.
        self.worker_busy = 0.0

    # -- ledger -----------------------------------------------------------
    def reset(self) -> None:
        """Empty the ledger in place (the proxies hold its containers)."""
        self.wall.clear()
        self.busy.clear()
        self.counts.clear()
        self.spans.clear()
        self._stack[:] = [0.0]
        self.worker_busy = 0.0

    @property
    def covered(self) -> float:
        """Wall seconds covered by top-level spans since :meth:`reset`."""
        return self._stack[0]

    def _enter(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, key: str, started: float) -> None:
        elapsed = perf_counter() - started
        own = elapsed - self._stack.pop()
        self.wall[key] += own
        self.busy[key] += own
        self.spans[key] += elapsed
        self._stack[-1] += elapsed

    def export(self) -> tuple:
        return dict(self.busy), dict(self.counts), self._stack[0]

    def merge_worker(self, shipped: tuple, workers: int) -> None:
        """Fold one worker spec's ledger into the current (map) span."""
        busy, counts, covered = shipped
        for key, seconds in busy.items():
            self.busy[key] += seconds
            self.wall[key] += seconds / workers
        for key, value in counts.items():
            self.counts[key] += value
        self.worker_busy += covered
        self._stack[-1] += covered / workers

    # -- proxies ----------------------------------------------------------
    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name, None)
        if original is None:
            return
        # An inherited method may already carry a proxy from its base
        # class: wrap the original so no call is timed twice.
        original = getattr(original, "__perfbench_original__", original)
        own = name in vars(owner)
        self._patches.append((owner, name, own, vars(owner).get(name)))
        proxy = make(original)
        functools.update_wrapper(proxy, original)
        proxy.__perfbench_original__ = original
        setattr(owner, name, proxy)

    def _span(self, owner, name: str, key: str, after=None) -> None:
        """Time every call of ``owner.name`` as span ``key``;
        ``after(args, result)`` updates counters inside the span."""
        enter, leave, counts = self._enter, self._exit, self.counts

        def make(original):
            def proxy(*args, **kwargs):
                started = enter()
                try:
                    result = original(*args, **kwargs)
                    counts[key + ".calls"] += 1
                    if after is not None:
                        after(args, result)
                    return result
                finally:
                    leave(key, started)
            return proxy

        self._patch(owner, name, make)

    def install(self) -> None:
        from repro import stats
        from repro.branch import PredictorHarness
        from repro.core import PBSEngine
        from repro.engines import engine_names, get_engine
        from repro.functional import EventBatch, Executor
        from repro.memory import MemoryHierarchy
        from repro.pipeline import OoOCore
        from repro.sim import EXECUTORS, ResultCache, Sweep
        from repro.sim import executors as sim_executors
        from repro.sim import workload_class, workload_names
        from repro.stats import randomness
        from repro.trace import TraceReader, TraceWriter

        counts = self.counts
        for name in workload_names():
            self._span(workload_class(name), "build", "workloads.build")
        for name in engine_names():
            self._span(get_engine(name), "executor", "engines.executor")

        def retired(key):
            def make(original):
                def proxy(executor, *args, **kwargs):
                    before = executor.retired
                    started = self._enter()
                    try:
                        return original(executor, *args, **kwargs)
                    finally:
                        counts["functional.instructions"] += (
                            executor.retired - before
                        )
                        self._exit(key, started)
                return proxy
            return make

        self._patch(Executor, "run", retired("functional.run"))

        def exploding(original):
            def proxy(batch):
                events = original(batch)
                while True:
                    started = self._enter()
                    try:
                        event = next(events)
                    except StopIteration:
                        return
                    finally:
                        self._exit("functional.explode", started)
                    counts["functional.exploded_events"] += 1
                    yield event
            return proxy

        self._patch(EventBatch, "events", exploding)

        def transacted(args, decision):
            if getattr(decision, "mode", None) == "hit":
                counts["core.hits"] += 1

        self._span(PBSEngine, "transact", "core.transact", transacted)
        for name in ("observe_branch", "observe_call", "observe_return"):
            self._span(PBSEngine, name, "core.observe")

        keys = self.predictor_keys

        def consuming(original):
            def proxy(harness, batch):
                key = "branch." + keys.get(
                    getattr(harness.predictor, "name", ""), "other"
                )
                before = harness.stats.mispredicts
                started = self._enter()
                try:
                    return original(harness, batch)
                finally:
                    counts[key + ".cond_branches"] += sum(batch.conds)
                    counts[key + ".mispredicts"] += (
                        harness.stats.mispredicts - before
                    )
                    self._exit(key + ".consume", started)
            return proxy

        self._patch(PredictorHarness, "consume_batch", consuming)

        self._span(OoOCore, "feed", "pipeline.feed")
        self._span(OoOCore, "finalize", "pipeline.finalize")

        def accessed(args, latency):
            if latency != args[0].l1.latency:
                counts["memory.l1_misses"] += 1

        self._span(MemoryHierarchy, "access", "memory.access", accessed)

        def finalized(args, _):
            counts["trace.captures"] += 1
            counts["trace.bytes_written"] += os.path.getsize(args[0].path)

        self._span(TraceWriter, "consume_batch", "trace.capture")
        self._span(TraceWriter, "finalize", "trace.capture", finalized)
        self._span(TraceReader, "replay", "trace.replay")

        def got(args, result):
            if result is not None:
                counts["sim.cache_hits"] += 1

        self._span(ResultCache, "get", "sim.cache_get", got)
        self._span(ResultCache, "put", "sim.cache_put")

        def swept(args, result):
            counts["sim.specs"] += len(result)

        self._span(Sweep, "run", "sim.sweep", swept)

        def mapping(original):
            def proxy(executor, specs, *args, **kwargs):
                workers = max(1, getattr(executor, "processes", 1) or 1)
                started = self._enter()
                try:
                    results = original(executor, specs, *args, **kwargs)
                    for result in results:
                        shipped = vars(result).pop(SHIPPED, None)
                        if shipped is not None:
                            self.merge_worker(shipped, workers)
                    return results
                finally:
                    self._exit("sim.map", started)
            return proxy

        for name in EXECUTORS:
            if "map" in vars(EXECUTORS.get(name)):
                self._patch(EXECUTORS.get(name), "map", mapping)

        def in_worker(original):
            # Runs in a forked pool worker: a fresh ledger per spec,
            # shipped home on the result.
            def proxy(item):
                self.reset()
                started = self._enter()
                index, result = original(item)
                self._exit(WORKER_SPAN, started)
                vars(result)[SHIPPED] = self.export()
                return index, result
            return proxy

        self._patch(sim_executors, "_execute_indexed", in_worker)

        def battery(args, _):
            counts["stats.values_tested"] += len(args[0])

        for module in (stats, randomness):
            self._span(module, "run_battery", "stats.battery", battery)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, own, previous = self._patches.pop()
            if own:
                setattr(owner, name, previous)
            else:
                delattr(owner, name)
