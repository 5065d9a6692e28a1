"""Microbenchmarks of the simulation substrates themselves.

These measure the library's own throughput (instructions simulated per
second, branch predictions per second, the PBS layer's cost per
instruction) so performance regressions in the simulator are visible.
"""

import random
from time import perf_counter

import pytest

from repro.branch import TageSCL, Tournament
from repro.core import PBSEngine
from repro.engines import create_engine
from repro.functional import Executor, per_event
from repro.isa import ProgramBuilder, R
from repro.workloads import get_workload


def build_alu_loop(iterations=20_000):
    b = ProgramBuilder("alu")
    b.li(R(1), 0)
    b.label("top")
    b.add(R(2), R(1), 7)
    b.mul(R(3), R(2), 3)
    b.xor(R(4), R(3), R(2))
    b.add(R(1), R(1), 1)
    b.blt(R(1), iterations, "top")
    b.halt()
    return b.build()


class CountingSink:
    """Event counter: the cheapest batch sink (the with-sink benchmarks
    measure transport, not consumer work)."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def consume_batch(self, batch):
        self.count += len(batch.pcs)


# Interpreter-loop optimisation history (this machine, PYTHONHASHSEED=0):
# pre-decoding operand accessors + hoisting enum/global lookups into
# locals (PR 4) took test_bench_functional_executor from 157.9ms to
# 23.5ms mean (~0.63M -> ~4.3M instr/s, 6.7x) and
# test_bench_executor_with_sink from 126.8ms to 48.4ms (2.6x).
def test_bench_functional_executor(benchmark):
    program = build_alu_loop()

    def run():
        executor = Executor(program, seed=1)
        executor.run()
        return executor.retired

    retired = benchmark(run)
    assert retired > 100_000


# Columnar sink history (this machine, PYTHONHASHSEED=0): batching the
# event pipeline (EventBatch chunks from the interpreter, per-block
# column extends from the compiled tier, consume_batch on the sinks)
# took test_bench_executor_with_sink from 61.7ms to ~19ms mean (3.3x)
# and test_bench_compiled_executor_with_sink from 34.3ms to ~5.6ms
# (6.1x); a bare-callable sink still takes the exact per-event path.
def test_bench_executor_with_sink(benchmark):
    program = build_alu_loop(8_000)

    def run():
        executor = Executor(program, seed=1)
        sink = CountingSink()
        executor.run(sink=sink)
        return sink.count

    assert benchmark(run) > 40_000


def test_bench_executor_with_legacy_sink(benchmark):
    """The per-event adapter: ``per_event`` explodes every batch and
    hands a callable one TraceEvent per retired instruction."""
    program = build_alu_loop(8_000)

    def run():
        executor = Executor(program, seed=1)
        count = [0]
        executor.run(sink=per_event(lambda e: count.__setitem__(0, count[0] + 1)))
        return count[0]

    assert benchmark(run) > 40_000


# Tiered engines (this machine, PYTHONHASHSEED=0): the compiled tier
# runs the same 20k-iteration alu loop in ~2.7ms vs the interpreter's
# ~27ms (10x; 8.6x over the PR 4 23.5ms baseline above), with codegen
# amortized through the in-memory memo + on-disk CodegenStore.
def test_bench_compiled_executor(benchmark):
    from repro.engines import create_engine

    program = build_alu_loop()
    engine = create_engine("compiled")
    engine.executor(program, seed=1).run()  # compile outside the loop

    def run():
        executor = engine.executor(program, seed=1)
        executor.run()
        return executor.retired

    retired = benchmark(run)
    assert retired > 100_000


def test_bench_compiled_executor_with_sink(benchmark):
    from repro.engines import create_engine

    program = build_alu_loop(8_000)
    engine = create_engine("compiled")
    engine.executor(program, seed=1).run(sink=CountingSink())  # warm codegen

    def run():
        executor = engine.executor(program, seed=1)
        sink = CountingSink()
        executor.run(sink=sink)
        return sink.count

    assert benchmark(run) > 40_000


def test_bench_compiled_executor_with_harness(benchmark):
    """The full MPKI pipeline: compiled tier feeding a real Tournament
    harness through consume_batch — what every paper table exercises."""
    from repro.branch import PredictorHarness
    from repro.engines import create_engine

    program = build_alu_loop(8_000)
    engine = create_engine("compiled")
    engine.executor(program, seed=1).run(
        sink=PredictorHarness(Tournament())
    )  # warm codegen

    def run():
        executor = engine.executor(program, seed=1)
        harness = PredictorHarness(Tournament())
        executor.run(sink=harness)
        return harness.stats.instructions

    assert benchmark(run) > 40_000


def test_bench_trace_capture(benchmark, tmp_path):
    """Interpret + record the committed path into a TraceStore."""
    from repro.sim import Session

    def run():
        store = tmp_path / "capture"
        result = (
            Session("pi", scale=0.25, seed=1)
            .predictors("tournament")
            .trace(store, mode="capture")
            .run()
        )
        return result.instructions

    assert benchmark(run) > 10_000


def test_bench_trace_replay(benchmark, tmp_path):
    """Replay a captured committed path (no interpretation)."""
    from repro.sim import Session

    store = tmp_path / "replay"
    Session("pi", scale=0.25, seed=1).trace(store).run()  # warm the store

    def run():
        result = (
            Session("pi", scale=0.25, seed=1)
            .predictors("tournament")
            .trace(store)
            .run()
        )
        assert result.trace_origin == "replay"
        return result.instructions

    assert benchmark(run) > 10_000


def test_bench_tournament_prediction(benchmark):
    rng = random.Random(3)
    stream = [(rng.randrange(64) * 2, rng.random() < 0.6) for _ in range(20_000)]

    def run():
        predictor = Tournament()
        for pc, taken in stream:
            predictor.predict(pc)
            predictor.update(pc, taken)
        return len(stream)

    benchmark(run)


def test_bench_tagescl_prediction(benchmark):
    # One branch in five is a PBS hit: its direction only enters the
    # histories (insert_history), as the harness delivers it.
    rng = random.Random(3)
    stream = [
        (rng.randrange(64) * 2, rng.random() < 0.6, rng.random() < 0.2)
        for _ in range(20_000)
    ]

    def run():
        predictor = TageSCL()
        for pc, taken, pbs_hit in stream:
            if pbs_hit:
                predictor.insert_history(pc, taken)
            else:
                predictor.predict(pc)
                predictor.update(pc, taken)
        return len(stream)

    benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)


#: Rounds per PBS layer row: single rounds swing ±30% on a shared host.
PBS_LAYER_ROUNDS = 9


@pytest.mark.parametrize("name", ("bandit", "genetic"))
def test_bench_pbs_layer(benchmark, name):
    """The PBS layer in ns per retired instruction: the compiled tier
    with and without an attached PBSEngine, at scale 0.1, seed 0.

    The two runs alternate round by round in one process and each
    reports its best round; ``extra_info`` carries both figures and
    their difference (the layer), the benchmark times the PBS run.
    """
    program = get_workload(name).build(0.1)
    engine = create_engine("compiled")

    def run(pbs):
        executor = engine.executor(
            program, seed=0, pbs=PBSEngine() if pbs else None)
        started = perf_counter()
        executor.run()
        return perf_counter() - started, executor.retired

    best = {False: float("inf"), True: float("inf")}
    retired = {}
    for _ in range(PBS_LAYER_ROUNDS + 1):  # the first round warms codegen
        for pbs in (False, True):
            seconds, retired[pbs] = run(pbs)
            best[pbs] = min(best[pbs], seconds)
    base_ns = best[False] / retired[False] * 1e9
    pbs_ns = best[True] / retired[True] * 1e9
    benchmark.extra_info.update(
        instructions=retired[True],
        compiled_ns_per_instr=round(base_ns, 1),
        compiled_pbs_ns_per_instr=round(pbs_ns, 1),
        pbs_layer_ns_per_instr=round(pbs_ns - base_ns, 1),
    )
    benchmark.pedantic(run, args=(True,), rounds=PBS_LAYER_ROUNDS,
                       iterations=1, warmup_rounds=1)
    assert retired[True] > 10_000


def test_bench_full_stack_pi(benchmark):
    """One complete timed PBS simulation of the PI benchmark."""
    from repro.pipeline import OoOCore, four_wide

    workload = get_workload("pi")

    def run():
        core = OoOCore(four_wide(), TageSCL())
        workload.run(scale=0.25, seed=1, pbs=PBSEngine(), sink=core)
        return core.finalize().ipc

    ipc = benchmark(run)
    assert ipc > 2.0
