"""Pinned event streams: every producer against fixed digests.

For every paper workload in base and PBS mode at scale 0.05, the
committed-path event stream is pinned as a SHA-256 over all twelve
``EventBatch`` columns in ``tests/golden/event-streams.json``.  Every
producer must reach the same digest:

* ``interp`` — the interpreter's batched emission;
* ``compiled`` — the compiled tier's batch variant;
* ``replay`` — a ``Session`` capture read back through
  ``TraceReader.replay``;
* ``rechunked`` — the interpreter's stream exploded and re-packed into
  ``EventBatch.from_events`` batches of random size.

The ``analyze/*`` entries pin the SHA-256 of the default
``analyze_trace`` report (every registered pass) for one captured
trace per mode, so the analysis passes stay stream-equivalent too.

The pins were first generated by the per-event interpreter (one
``TraceEvent`` per retired instruction) that the batch protocol
replaced, and fix that stream.  Regenerate only after an *intentional*
change of the event stream, with::

    PYTHONPATH=src python -m tests.test_event_streams
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.analysis import analyze_trace
from repro.core import PBSEngine
from repro.functional import EventBatch, per_event
from repro.sim import Session, get_workload
from repro.sim.registry import paper_workload_names
from repro.trace import TraceStore

FIXTURE = Path(__file__).resolve().parent / "golden" / "event-streams.json"

SCALE = 0.05
SEED = 1
MODES = ("base", "pbs")
#: The workload whose captured traces pin the ``analyze_trace`` report.
ANALYZED = "pi"


class StreamDigest:
    """Batch sink hashing every row's twelve columns, in stream order.

    Rows hash the same however the stream is chunked into batches.
    """

    def __init__(self):
        self._sha = hashlib.sha256()
        self.events = 0

    def consume_batch(self, batch):
        lines = []
        for (pc, op, op_class, dest, srcs, cond, taken, target, next_pc,
             addr, store, prob_mode) in zip(
                 *(getattr(batch, column) for column in EventBatch.__slots__)):
            lines.append(
                f"{pc} {int(op)} {int(op_class)} {dest} "
                f"{'.'.join(map(str, srcs))} {int(cond)} {int(taken)} "
                f"{target} {next_pc} {addr} {int(store)} {prob_mode}\n"
            )
        self._sha.update("".join(lines).encode())
        self.events += len(batch)

    def pin(self):
        return {"events": self.events, "sha256": self._sha.hexdigest()}


def run_workload(name, mode, sink, engine):
    pbs = PBSEngine() if mode == "pbs" else None
    get_workload(name).run(scale=SCALE, seed=SEED, pbs=pbs, sink=sink,
                           engine=engine)
    return sink


def capture(store, name, mode):
    """Capture one trace of ``name`` into ``store``; returns its digest."""
    session = Session(name, scale=SCALE, seed=SEED)
    if mode == "pbs":
        session.pbs()
    session.trace(store, mode="capture").run()
    return session.trace_digest()


def report_pin(path):
    report = analyze_trace(path)
    payload = json.dumps(report, sort_keys=True).encode()
    return {"events": report["events"],
            "sha256": hashlib.sha256(payload).hexdigest()}


def stream_cases():
    return [(name, mode) for name in paper_workload_names() for mode in MODES]


def case_id(name, mode):
    return f"{name}/{mode}"


def compute_all(tmp_dir):
    """Every pin, from the interpreter."""
    out = {}
    for name, mode in stream_cases():
        out[case_id(name, mode)] = run_workload(
            name, mode, StreamDigest(), "interp").pin()
    store = TraceStore(tmp_dir)
    for mode in MODES:
        out[f"analyze/{mode}"] = report_pin(
            store.path(capture(store, ANALYZED, mode)))
    return out


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    expected = [case_id(*case) for case in stream_cases()]
    expected += [f"analyze/{mode}" for mode in MODES]
    assert sorted(pinned) == sorted(expected)


@pytest.mark.parametrize("name,mode", stream_cases())
def test_interp_batches_match_pin(name, mode, pinned):
    got = run_workload(name, mode, StreamDigest(), "interp").pin()
    assert got == pinned[case_id(name, mode)]


@pytest.mark.parametrize("name,mode", stream_cases())
def test_compiled_batches_match_pin(name, mode, pinned):
    got = run_workload(name, mode, StreamDigest(), "compiled").pin()
    assert got == pinned[case_id(name, mode)]


@pytest.mark.parametrize("name,mode", stream_cases())
def test_replay_matches_pin(name, mode, pinned, tmp_path):
    store = TraceStore(tmp_path)
    digest = StreamDigest()
    store.open(capture(store, name, mode)).replay(digest)
    assert digest.pin() == pinned[case_id(name, mode)]


@pytest.mark.parametrize("name,mode", stream_cases())
def test_rechunked_batches_match_pin(name, mode, pinned):
    events = []
    run_workload(name, mode, per_event(events.append), "interp")
    rng = random.Random(f"{name}/{mode}")
    digest = StreamDigest()
    start = 0
    while start < len(events):
        size = rng.randrange(1, 3000)
        digest.consume_batch(EventBatch.from_events(events[start:start + size]))
        start += size
    assert digest.pin() == pinned[case_id(name, mode)]


@pytest.mark.parametrize("mode", MODES)
def test_analyze_report_matches_pin(mode, pinned, tmp_path):
    store = TraceStore(tmp_path)
    path = store.path(capture(store, ANALYZED, mode))
    assert report_pin(path) == pinned[f"analyze/{mode}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        FIXTURE.write_text(
            json.dumps(compute_all(tmp), indent=1, sort_keys=True) + "\n"
        )
    print(f"wrote {FIXTURE}")
