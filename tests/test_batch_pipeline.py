"""The batch sink contract: every producer and consumer speaks
``consume_batch(EventBatch)``, and chunking never changes results.

The stream itself is pinned in ``tests/golden/event-streams.json`` (see
``tests/test_event_streams.py``); the tests here hold the delivery
details to it:

* ``EventBatch`` explodes back to the exact ``TraceEvent`` stream it
  was packed from, and ``per_event`` hands those rows to a callable;
* a run stepped one instruction at a time (one-row batches) delivers
  the same stream as a straight run, on the interpreter and the
  compiled tier alike;
* ``PredictorHarness.consume_batch`` produces the same final stats as
  the one-row ``__call__`` walk, for **every registered predictor**;
* ``MispredictBreakdown.consume_batch`` matches the one-row pass
  down to the per-PC mispredict attribution;
* the sim-layer ``FanOut`` feeds every member the same batches, and
  its ``sink_batches`` counter surfaces through sweep stats;
* every sink entry point rejects a plain callable with a ``TypeError``
  naming ``per_event``;
* the sink-attached diff mode holds interp and compiled to the same
  batch-fed tally at every barrier.

Hypothesis drives generated programs through the stepped-vs-straight
comparison where it is installed; the exhaustive per-predictor sweeps
run regardless.
"""

import json

import pytest

from repro.branch import PredictorHarness
from repro.functional import EventBatch, Executor, per_event
from repro.functional.trace import ProbMode, TraceEvent
from repro.sim import FanOut, Session, Sweep, get_workload, predictor_names
from repro.sim.registry import create_predictor

from .test_event_streams import FIXTURE, StreamDigest

# One mid-size branchy workload keeps every per-predictor case fast; its
# stream at this scale and seed is pinned as ``bandit/base``.
WORKLOAD = "bandit"
SCALE = 0.05
SEED = 1


def capture_events(workload=WORKLOAD, scale=SCALE, seed=SEED):
    events = []
    get_workload(workload).run(scale=scale, seed=seed, engine="interp",
                               sink=per_event(events.append))
    return events


def stepped_events(executor):
    """Run ``executor`` one instruction per call; one-row batches."""
    events = []
    sink = per_event(events.append)
    while executor.step(1, sink=sink):
        pass
    return events


@pytest.fixture(scope="module")
def event_stream():
    return capture_events()


# ----------------------------------------------------------------------
# EventBatch itself.
# ----------------------------------------------------------------------
class TestEventBatch:
    def test_round_trip_explodes_to_identical_events(self, event_stream):
        batch = EventBatch.from_events(event_stream)
        assert len(batch) == len(event_stream)
        for original, exploded in zip(event_stream, batch.events()):
            for slot in TraceEvent.__slots__:
                assert getattr(original, slot) == getattr(exploded, slot)

    def test_clear_empties_every_column(self, event_stream):
        batch = EventBatch.from_events(event_stream[:10])
        batch.clear()
        assert len(batch) == 0
        for column in EventBatch.__slots__:
            assert getattr(batch, column) == []

    def test_per_event_adapter_explodes_rows(self, event_stream):
        rows = []
        per_event(rows.append).consume_batch(
            EventBatch.from_events(event_stream[:50]))
        assert_streams_equal(event_stream[:50], rows)


# ----------------------------------------------------------------------
# Batch boundaries never change the stream.
# ----------------------------------------------------------------------
class _Collector:
    """Columnar sink that explodes every batch back to events."""

    def __init__(self):
        self.events = []
        self.batches = 0

    def consume_batch(self, batch):
        self.batches += 1
        self.events.extend(batch.events())


def assert_streams_equal(expected, exploded):
    assert len(expected) == len(exploded)
    for a, b in zip(expected, exploded):
        for slot in TraceEvent.__slots__:
            assert getattr(a, slot) == getattr(b, slot), slot


def _pinned(name="bandit/base"):
    return json.loads(FIXTURE.read_text())[name]


def test_interp_batch_stream_matches_per_event(event_stream):
    """The straight run's 1024-row batches and a run stepped one
    instruction at a time deliver the same (pinned) stream."""
    collector = _Collector()
    digest = StreamDigest()
    Executor(get_workload(WORKLOAD).build(SCALE), seed=SEED).run(
        sink=FanOut([collector, digest]))
    assert collector.batches > 1
    assert digest.pin() == _pinned()
    stepped = stepped_events(
        Executor(get_workload(WORKLOAD).build(SCALE), seed=SEED))
    assert_streams_equal(stepped, collector.events)
    assert_streams_equal(event_stream, collector.events)


def test_compiled_batch_stream_matches_per_event(event_stream):
    """The compiled tier's block variant and its step variant (one
    instruction per call) both deliver the pinned stream."""
    from repro.engines import create_engine

    engine = create_engine("compiled")
    program = get_workload(WORKLOAD).build(SCALE)
    collector = _Collector()
    digest = StreamDigest()
    engine.executor(program, seed=SEED).run(sink=FanOut([collector, digest]))
    assert collector.batches > 1
    assert digest.pin() == _pinned()
    assert_streams_equal(event_stream, collector.events)
    stepped = stepped_events(engine.executor(program, seed=SEED))
    assert_streams_equal(event_stream, stepped)


def test_budget_pause_flushes_batch():
    """A budget-paused run() must already have delivered every retired
    instruction — the diff steppers rely on it."""
    program = get_workload("pi").build(0.05)
    reference = []
    ex = Executor(program, seed=1)
    ex.run(sink=per_event(reference.append))

    collector = _Collector()
    paused = Executor(program, seed=1)
    while not paused.halted:
        paused.run(sink=collector, budget=97)
        assert len(collector.events) == paused.retired
    assert_streams_equal(reference, collector.events)


# ----------------------------------------------------------------------
# PredictorHarness.consume_batch — every registered predictor.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", predictor_names())
def test_harness_batch_matches_per_event(name, event_stream):
    one_row = PredictorHarness(create_predictor(name))
    for event in event_stream:
        one_row(event)

    batched = PredictorHarness(create_predictor(name))
    # Uneven chunk sizes cover batch-boundary handling.
    for start in range(0, len(event_stream), 777):
        batched.consume_batch(
            EventBatch.from_events(event_stream[start:start + 777])
        )
    assert batched.stats.as_dict() == one_row.stats.as_dict()


@pytest.mark.parametrize("name", predictor_names())
def test_harness_batch_matches_per_event_pbs(name):
    """Same contract with PBS prob modes in the stream (PBS_HIT and
    PREDICTED rows take the harness's special arms)."""
    from repro.core import PBSEngine

    events = []
    get_workload(WORKLOAD).run(
        scale=SCALE, seed=SEED, pbs=PBSEngine(), engine="interp",
        sink=per_event(events.append),
    )
    assert any(e.prob_mode != ProbMode.NOT_PROB for e in events)

    for options in ({}, {"pbs_inserts_history": True}):
        one_row = PredictorHarness(create_predictor(name), **options)
        for event in events:
            one_row(event)
        batched = PredictorHarness(create_predictor(name), **options)
        batched.consume_batch(EventBatch.from_events(events))
        assert batched.stats.as_dict() == one_row.stats.as_dict()


def test_session_single_and_multi_predictor_results_unchanged():
    """End to end: the batched Session path reports the same metrics as
    feeding the same harnesses per-event by hand."""
    result = (
        Session(WORKLOAD, scale=SCALE, seed=SEED)
        .predictors("tournament", "gshare", "tage-sc-l")
        .run()
    )
    assert result.sink_batches > 0
    events = capture_events()
    for name in ("tournament", "gshare", "tage-sc-l"):
        harness = PredictorHarness(create_predictor(name))
        for event in events:
            harness(event)
        reported = result.predictor(name)
        assert reported.instructions == harness.stats.instructions
        assert reported.mispredicts == harness.stats.mispredicts
        assert reported.mpki == pytest.approx(harness.stats.mpki)


# ----------------------------------------------------------------------
# MispredictBreakdown.consume_batch — per-PC attribution parity.
# ----------------------------------------------------------------------
def test_mispredict_breakdown_batch_matches_per_event(event_stream):
    from repro.analysis import create_analysis

    names = ("tournament", "tage-sc-l", "bimodal")
    one_row = create_analysis("mispredicts", predictors=names, top=None)
    for event in event_stream:
        one_row(event)

    batched = create_analysis("mispredicts", predictors=names, top=None)
    for start in range(0, len(event_stream), 513):
        batched.consume_batch(
            EventBatch.from_events(event_stream[start:start + 513])
        )
    assert batched.result() == one_row.result()


# ----------------------------------------------------------------------
# FanOut and the sink entry points.
# ----------------------------------------------------------------------
class TestFanOut:
    def test_mixed_fanout_feeds_per_event_member(self, event_stream):
        harness = PredictorHarness(create_predictor("tournament"))
        rows = []
        fan = FanOut([harness, per_event(rows.append)])
        fan.consume_batch(EventBatch.from_events(event_stream))
        assert fan.batches == 1
        assert_streams_equal(event_stream, rows)
        assert harness.stats.instructions == len(event_stream)

    def test_sweep_stats_surface_sink_counters(self):
        stats = (
            Sweep(workloads=["pi"], scales=[0.05], seeds=[1], modes=["base"],
                  predictors=["tournament"])
            .run()
            .to_stats()
        )
        assert stats["sink_batches"] > 0
        assert "sink_fallbacks" not in stats

    def test_session_per_event_sink_sees_every_instruction(self):
        events = []
        result = (
            Session("pi", scale=0.05, seed=1)
            .predictors("tournament")
            .sink(per_event(events.append))
            .run()
        )
        assert result.sink_batches > 0
        assert len(events) == result.instructions
        assert not hasattr(result, "sink_fallbacks")


def _executor_run(sink):
    Executor(get_workload("pi").build(0.02), seed=1).run(sink=sink)


def _compiled_run(sink):
    from repro.engines import create_engine

    program = get_workload("pi").build(0.02)
    create_engine("compiled").executor(program, seed=1).run(sink=sink)


def _replay(sink, tmp_path):
    from repro.trace import TraceStore

    store = TraceStore(tmp_path)
    session = Session("pi", scale=0.02, seed=1).trace(store)
    session.run()
    store.open(session.trace_digest()).replay(sink)


SINK_ENTRY_POINTS = {
    "Executor.run": lambda sink, tmp_path: _executor_run(sink),
    "Executor.step": lambda sink, tmp_path: Executor(
        get_workload("pi").build(0.02), seed=1).step(1, sink=sink),
    "CompiledExecutor.run": lambda sink, tmp_path: _compiled_run(sink),
    "TraceReader.replay": _replay,
    "Session.sink": lambda sink, tmp_path: Session("pi").sink(sink),
    "FanOut": lambda sink, tmp_path: FanOut([sink]),
}


@pytest.mark.parametrize("entry", sorted(SINK_ENTRY_POINTS))
def test_sink_entry_point_rejects_plain_callable(entry, tmp_path):
    events = []
    with pytest.raises(TypeError, match="per_event"):
        SINK_ENTRY_POINTS[entry](events.append, tmp_path)
    assert events == []
    # The adapter is the documented way in.
    SINK_ENTRY_POINTS[entry](per_event(events.append), tmp_path)


# ----------------------------------------------------------------------
# Sink-attached diff lockstep.
# ----------------------------------------------------------------------
def test_diff_sink_attached_interp_vs_compiled():
    from repro.diff import diff_tiers

    program = get_workload("pi").build(0.05)
    divergence = diff_tiers(
        program, ("interp", "compiled"), seed=1, stride=32,
        predictor="tournament",
    )
    assert divergence is None


def test_diff_sink_attached_rejects_sinkless_tier():
    from repro.diff import diff_tiers

    program = get_workload("pi").build(0.02)
    with pytest.raises(ValueError, match="sink"):
        diff_tiers(program, ("interp", "replay"), predictor="tournament")


def test_diff_sink_detects_tally_skew():
    """A sink divergence must surface as a structured delta — drive the
    harness against a deliberately skewed stepper."""
    from repro.diff.harness import diff_tiers
    from repro.diff.steppers import STEPPERS, InterpStepper

    class SkewedStepper(InterpStepper):
        name = "skewed"

        def sink_stats(self):
            stats = super().sink_stats()
            stats["instructions"] += 1
            return stats

    STEPPERS["skewed"] = SkewedStepper
    try:
        program = get_workload("pi").build(0.02)
        divergence = diff_tiers(
            program, ("interp", "skewed"), seed=1, predictor="tournament"
        )
        assert divergence is not None
        assert divergence.kind == "state"
        assert any(d["field"] == "sink" for d in divergence.deltas)
    finally:
        del STEPPERS["skewed"]


# ----------------------------------------------------------------------
# Hypothesis: generated programs, stepped one-row batches vs a straight
# run on both tiers, plus the harness tally on top.
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       predictor=st.sampled_from(predictor_names()))
def test_generated_programs_batch_equivalence(seed, predictor):
    from repro.diff import build_program, generate

    from repro.engines import create_engine

    program = build_program(generate(seed))

    reference = []
    ref_harness = PredictorHarness(create_predictor(predictor))

    def observe(event):
        reference.append(event)
        ref_harness(event)

    stepped = Executor(program, seed=seed)
    sink = per_event(observe)
    try:
        while stepped.step(1, sink=sink):
            pass
    except Exception as exc:  # noqa: BLE001 — must fault identically below
        fault = f"{type(exc).__name__}: {exc}"
    else:
        fault = None

    for executor in (Executor(program, seed=seed),
                     create_engine("compiled").executor(program, seed=seed)):
        collector = _Collector()
        batch_harness = PredictorHarness(create_predictor(predictor))
        try:
            executor.run(sink=FanOut([collector, batch_harness]))
        except Exception as exc:  # noqa: BLE001
            assert fault == f"{type(exc).__name__}: {exc}"
        else:
            assert fault is None

        assert_streams_equal(reference, collector.events)
        assert batch_harness.stats.as_dict() == ref_harness.stats.as_dict()
