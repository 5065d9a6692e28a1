"""Pinned predictor streams: every predictor kernel against fixed digests.

Seeded random branch streams (loop branches, biased and correlated
branches, long-period patterns, probabilistic branches that PBS either
predicts or supplies at fetch) are driven through each predictor three
ways:

* ``direct`` — bare ``predict``/``update``/``insert_history`` calls,
  including the irregular sequences the interface allows (update with
  no prediction, history inserted between predict and update, a
  repeated predict, an update for a different pc than the prediction);
* ``call`` — ``PredictorHarness.__call__`` per event;
* ``batch`` — ``PredictorHarness.consume_batch`` over batches of random
  size.

The harness paths run with and without ``filter_probabilistic``.  Each
case pins a SHA-256 of the prediction bits plus the final
``BranchStats`` in ``tests/golden/predictor-streams.json``.

The ``core-*`` paths drive the same branch stream, interleaved with
ALU, load and store rows that carry random sources, destinations and
addresses, through the 4- and 8-wide ``OoOCore`` under tournament,
TAGE-SC-L and the perfect predictor, with ``filter_probabilistic``,
``pbs_inserts_history=False`` and a non-empty ``oracle_pcs``.  Each
pins the prediction bits, ``cycles``, ``branch_stall_cycles`` and the
final ``BranchStats``; ``OoOCore.feed`` per event and
``OoOCore.consume_batch`` over batches of random size must both reach
them.

Any predictor change must keep every digest.  Regenerate only after an
*intentional* change of predictor semantics, with::

    PYTHONPATH=src python -m tests.test_predictor_streams
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.branch import (
    BranchStats,
    LoopPredictor,
    PredictorHarness,
    StatisticalCorrector,
    Tage,
    TageSCL,
)
from repro.functional import EventBatch
from repro.functional.trace import ProbMode, TraceEvent
from repro.isa.opcodes import OpClass
from repro.pipeline import OoOCore, eight_wide, four_wide
from repro.sim import predictor_names
from repro.sim.registry import create_predictor

FIXTURE = Path(__file__).resolve().parent / "golden" / "predictor-streams.json"

STREAM_SEEDS = (11, 29)
STREAM_BRANCHES = 3000


# Index width 8 against tag widths 11 and 10: no fold is shared between
# the index and the tags.  Short useful-bit aging period.
def split_tage():
    return Tage(
        base_entries=2048,
        table_entries=256,
        tag_bits=11,
        history_lengths=(3, 6, 11, 19, 33, 55, 91),
        useful_reset_period=1500,
    )


# Index and tag width 10: lengths at most the fold width (4, 10) next to
# lengths beyond 64 bits of history (70, 130, 200).
def long_tage():
    return Tage(
        base_entries=1024,
        table_entries=1024,
        tag_bits=10,
        history_lengths=(4, 10, 24, 70, 130, 200),
    )


PREDICTORS = {name: (lambda name=name: create_predictor(name))
              for name in predictor_names()}
PREDICTORS.update({
    "tage": Tage,
    "tage-split": split_tage,
    "tage-long": long_tage,
    "tage-sc-l-split": lambda: TageSCL(
        tage=split_tage(),
        corrector=StatisticalCorrector(
            bias_entries=256,
            table_entries=512,
            history_lengths=(3, 9, 14, 27),
            tage_weight=5,
            threshold=40,
        ),
        loop=LoopPredictor(entries=16, tag_bits=6, count_bits=5),
    ),
    "tage-sc-l-long": lambda: TageSCL(tage=long_tage()),
})

PATHS = ("direct", "call", "call-filter", "batch", "batch-filter")

CORE_PREDICTORS = ("perfect", "tage-sc-l", "tournament")
CORE_CONFIGS = {"4w": four_wide, "8w": eight_wide}
#: A loop branch, the correlated branch and a probabilistic pc that is
#: also a PBS hit at times: the hit takes precedence over the queue.
ORACLE_PCS = frozenset({0x400 + 8 * 7, 0xC00, 0x804})
CORE_VARIANTS = {
    "plain": {},
    "filter": {"filter_probabilistic": True},
    "no-insert": {"pbs_inserts_history": False},
    "oracle": {"oracle_pcs": ORACLE_PCS},
    "oracle-filter": {"oracle_pcs": ORACLE_PCS, "filter_probabilistic": True},
}
CORE_PATHS = tuple(f"core-{config}-{variant}"
                   for config in CORE_CONFIGS for variant in CORE_VARIANTS)
#: Classes of the non-branch rows in a core stream.
FILLER_CLASSES = (OpClass.IALU, OpClass.IALU, OpClass.IMUL, OpClass.FALU,
                  OpClass.FDIV, OpClass.RAND, OpClass.LOAD, OpClass.LOAD,
                  OpClass.STORE)


def make_stream(seed):
    """A list of ``TraceEvent``s: branches with non-branch fillers."""
    rng = random.Random(seed)
    period24 = [rng.random() < 0.5 for _ in range(24)]
    period80 = [rng.random() < 0.5 for _ in range(80)]
    trips = {}
    recent = [False, False]
    events = []
    for step in range(STREAM_BRANCHES):
        for _ in range(rng.randrange(3)):
            events.append(TraceEvent(rng.randrange(1 << 12) * 4, 1, 0, 1, ()))
        kind = rng.randrange(9)
        prob_mode = ProbMode.NOT_PROB
        if kind == 0:      # loop-closing branches with fixed trip counts
            trip = (3, 7, 12, 40)[rng.randrange(4)]
            pc = 0x400 + 8 * trip
            count = trips.get(pc, 0) + 1
            taken = count < trip
            trips[pc] = 0 if not taken else count
        elif kind == 1:    # biased random: what probabilistic branches are
            pc = 0x800 + 4 * rng.randrange(3)
            taken = rng.random() < (0.7, 0.5, 0.9)[(pc - 0x800) >> 2]
            prob_mode = (ProbMode.PREDICTED if rng.random() < 0.4
                         else ProbMode.PBS_HIT)
        elif kind == 2:    # correlated with the last two outcomes
            pc = 0xC00
            taken = recent[0] != recent[1]
        elif kind == 3:
            pc = 0xC40
            taken = period24[step % 24]
        elif kind == 4:
            pc = 0xC80
            taken = period80[step % 80]
        elif kind == 5:    # pcs that alias in every table
            pc = rng.randrange(4) << 14
            taken = rng.random() < 0.8
        else:              # a wide spread of mostly-biased branches
            pc = rng.randrange(1 << 16)
            taken = rng.random() < ((pc & 7) + 0.5) / 8
        recent = [taken, recent[0]]
        events.append(TraceEvent(pc, 2, 1, 0, (), is_cond_branch=True,
                                 taken=taken, target=pc + 64,
                                 next_pc=pc + 64 if taken else pc + 4,
                                 prob_mode=prob_mode))
    return events


def make_core_stream(seed):
    """The branch stream of :func:`make_stream` for the timing model.

    Each filler row becomes one to three ALU, load or store rows with
    random registers and (for memory rows) a random word address; branch
    rows read random registers and write none.
    """
    rng = random.Random(seed + 1)

    def regs():
        return tuple(rng.randrange(32) for _ in range(rng.randrange(3)))

    events = []
    for event in make_stream(seed):
        if event.is_cond_branch:
            events.append(TraceEvent(
                event.pc, 2, OpClass.BRANCH, -1, regs(), is_cond_branch=True,
                taken=event.taken, target=event.target,
                next_pc=event.next_pc, prob_mode=event.prob_mode))
            continue
        for _ in range(1 + rng.randrange(3)):
            op_class = FILLER_CLASSES[rng.randrange(len(FILLER_CLASSES))]
            is_store = op_class == OpClass.STORE
            addr = (rng.randrange(1 << 14)
                    if op_class in (OpClass.LOAD, OpClass.STORE) else None)
            events.append(TraceEvent(
                event.pc, 1, op_class, -1 if is_store else rng.randrange(32),
                regs(), next_pc=event.pc + 4, addr=addr, is_store=is_store))
    return events


class _Recorder:
    """Delegates to a predictor and records every prediction it makes."""

    def __init__(self, predictor, bits):
        self.name = predictor.name
        self.perfect = predictor.perfect
        self.static_prediction = predictor.static_prediction
        self._predictor = predictor
        self._bits = bits

    def predict(self, pc):
        prediction = self._predictor.predict(pc)
        self._bits.append(1 if prediction else 0)
        return prediction

    def update(self, pc, taken):
        self._predictor.update(pc, taken)

    def insert_history(self, pc, taken):
        self._predictor.insert_history(pc, taken)


def drive_direct(predictor, events, seed):
    """Bare predictor calls, with the interface's irregular sequences."""
    rng = random.Random(seed)
    bits = bytearray()
    stats = BranchStats()
    if predictor.perfect:
        return bits, stats
    for event in events:
        stats.instructions += 1
        if not event.is_cond_branch:
            continue
        pc, taken = event.pc, event.taken
        if event.prob_mode == ProbMode.PBS_HIT:
            stats.pbs_hits += 1
            predictor.insert_history(pc, taken)
            continue
        roll = rng.random()
        if roll < 0.02:
            predictor.update(pc, taken)
            bits.append(2)
            continue
        prediction = predictor.predict(pc)
        bits.append(1 if prediction else 0)
        if roll < 0.04:
            predictor.insert_history(pc ^ 4, rng.random() < 0.5)
        elif roll < 0.06:
            bits.append(1 if predictor.predict(pc) else 0)
        elif roll < 0.07:
            pc = rng.randrange(1 << 16)
        predictor.update(pc, taken)
        if event.prob_mode == ProbMode.PREDICTED:
            stats.prob_branches += 1
            stats.prob_mispredicts += prediction != taken
        else:
            stats.regular_branches += 1
            stats.regular_mispredicts += prediction != taken
    return bits, stats


def random_batches(events, seed):
    """``events`` as consecutive ``EventBatch``es of random size."""
    rng = random.Random(seed)
    start = 0
    while start < len(events):
        size = rng.randrange(1, 300)
        yield EventBatch.from_events(events[start:start + size])
        start += size


def drive_harness(predictor, events, seed, batched, filter_probabilistic):
    bits = bytearray()
    harness = PredictorHarness(_Recorder(predictor, bits),
                               filter_probabilistic=filter_probabilistic)
    if not batched:
        for event in events:
            harness(event)
        return bits, harness.stats
    for batch in random_batches(events, seed):
        harness.consume_batch(batch)
    return bits, harness.stats


def drive_core(predictor, events, path, seed, batched):
    """Time ``events`` on an ``OoOCore``; returns bits, stats, cycles.

    ``batched`` hands the core batches of random size instead of one
    ``feed`` call per event.
    """
    _, config, variant = path.split("-", 2)
    bits = bytearray()
    core = OoOCore(CORE_CONFIGS[config](), _Recorder(predictor, bits),
                   **CORE_VARIANTS[variant])
    if batched:
        for batch in random_batches(events, seed):
            core.consume_batch(batch)
    else:
        for event in events:
            core.feed(event)
    stats = core.finalize()
    return bits, stats.branches, {
        "cycles": stats.cycles,
        "branch_stall_cycles": stats.branch_stall_cycles,
    }


def run_case(name, path, seed, events=None):
    if path.startswith("core-"):
        return run_core_case(name, path, seed, events)
    if events is None:
        events = make_stream(seed)
    predictor = PREDICTORS[name]()
    if path == "direct":
        bits, stats = drive_direct(predictor, events, seed)
    else:
        bits, stats = drive_harness(predictor, events, seed,
                                    batched=path.startswith("batch"),
                                    filter_probabilistic=path.endswith("filter"))
    tally = {key: value for key, value in stats.as_dict().items()
             if key != "mpki"}
    digest = hashlib.sha256(bytes(bits))
    digest.update(json.dumps(tally, sort_keys=True).encode())
    return {"sha256": digest.hexdigest(), "predictions": len(bits),
            "stats": tally}


def run_core_case(name, path, seed, events=None, batched=False):
    if events is None:
        events = make_core_stream(seed)
    bits, stats, timing = drive_core(PREDICTORS[name](), events, path, seed,
                                     batched)
    tally = {key: value for key, value in stats.as_dict().items()
             if key != "mpki"}
    digest = hashlib.sha256(bytes(bits))
    digest.update(json.dumps({**timing, "stats": tally},
                             sort_keys=True).encode())
    return {"sha256": digest.hexdigest(), "predictions": len(bits),
            **timing, "stats": tally}


def case_id(name, path, seed):
    return f"{name}/{path}/seed{seed}"


def all_cases():
    for seed in STREAM_SEEDS:
        for name in PREDICTORS:
            for path in PATHS:
                yield name, path, seed
        for name in CORE_PREDICTORS:
            for path in CORE_PATHS:
                yield name, path, seed


def compute_all():
    out = {}
    streams = {seed: make_stream(seed) for seed in STREAM_SEEDS}
    core_streams = {seed: make_core_stream(seed) for seed in STREAM_SEEDS}
    for name, path, seed in all_cases():
        events = (core_streams if path.startswith("core-") else streams)[seed]
        out[case_id(name, path, seed)] = run_case(name, path, seed, events)
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def streams():
    return {seed: make_stream(seed) for seed in STREAM_SEEDS}


@pytest.fixture(scope="module")
def core_streams():
    return {seed: make_core_stream(seed) for seed in STREAM_SEEDS}


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(case_id(*case) for case in all_cases())


@pytest.mark.parametrize("name", sorted(PREDICTORS))
@pytest.mark.parametrize("path", PATHS)
def test_stream_matches_pin(name, path, pinned, streams):
    for seed in STREAM_SEEDS:
        got = run_case(name, path, seed, streams[seed])
        assert got == pinned[case_id(name, path, seed)], case_id(name, path, seed)


@pytest.mark.parametrize("name", CORE_PREDICTORS)
@pytest.mark.parametrize("path", CORE_PATHS)
@pytest.mark.parametrize("drive", ("feed", "batch"))
def test_core_matches_pin(name, path, drive, pinned, core_streams):
    for seed in STREAM_SEEDS:
        got = run_core_case(name, path, seed, core_streams[seed],
                            batched=drive == "batch")
        assert got == pinned[case_id(name, path, seed)], case_id(name, path, seed)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
