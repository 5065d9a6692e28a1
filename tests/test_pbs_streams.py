"""Pinned PBS decision streams: paper workloads and generated PROB
programs under four configs.

For every paper workload at scale 0.05, seed 1, every generated program
``generate(seed, pbs=True)`` for seeds 0-23 (run with that seed), and
each of four :class:`~repro.core.PBSConfig` design points, three things
are pinned in ``tests/golden/pbs-streams.json``:

* ``decisions`` / ``sha256`` — the count and SHA-256 of the stream of
  PBS decisions, one line per probabilistic branch instance: the mode
  (``hit``/``boot``/``regular``), the direction taken and the replayed
  swap values;
* ``stats`` — the final ``PBSStats.as_dict()``;
* ``context`` — the Context-Table counters ``loops_detected``,
  ``loops_terminated`` and ``evictions``.

The configs are :data:`repro.diff.PBS_CONFIGS`: the paper's default, a
one-entry Prob-BTB, no context support (the Prob-BTB indexed by PC
alone) and no blacklisting after a Const-Val mismatch.  The paper
workloads never change a comparison constant, call deeper than one
level or nest three loops; the generated programs' PBS macros do.  Both
execution tiers must reach every pin: the interpreter calls the engine
for every control transfer, the compiled tier keeps the common loop case
inline and calls it only when a loop is allocated or terminated, so the
pin holds the two loop-tracking paths to the same decisions.

Regenerate only after an *intentional* change of PBS behaviour, with::

    PYTHONPATH=src python -m tests.test_pbs_streams
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core import PBSConfig, PBSEngine
from repro.diff import PBS_CONFIGS, build_program, generate
from repro.engines import create_engine
from repro.sim import get_workload
from repro.sim.registry import paper_workload_names

FIXTURE = Path(__file__).resolve().parent / "golden" / "pbs-streams.json"

SCALE = 0.05
SEED = 1
GENERATED = 24
TIERS = ("interp", "compiled")


class RecordingEngine(PBSEngine):
    """A PBS engine that hashes every decision it hands out."""

    def __init__(self, config):
        super().__init__(config)
        self._sha = hashlib.sha256()
        self.decisions = 0

    def transact(self, *args):
        decision = super().transact(*args)
        swapped = decision.swap_values
        values = "-" if swapped is None else " ".join(map(repr, swapped))
        self._sha.update(
            f"{decision.mode} {int(bool(decision.taken))} {values}\n".encode()
        )
        self.decisions += 1
        return decision

    def pin(self):
        context = self.context
        return {
            "decisions": self.decisions,
            "sha256": self._sha.hexdigest(),
            "stats": self.stats.as_dict(),
            "context": {
                "loops_detected": context.loops_detected,
                "loops_terminated": context.loops_terminated,
                "evictions": context.evictions,
            },
        }


def run_pin(name, config, tier):
    engine = RecordingEngine(PBSConfig(**PBS_CONFIGS[config]))
    if name.startswith("gen-"):
        seed = int(name[4:])
        program = build_program(generate(seed, pbs=True))
        create_engine(tier).executor(program, seed=seed, pbs=engine).run()
    else:
        get_workload(name).run(scale=SCALE, seed=SEED, pbs=engine,
                               engine=tier)
    return engine.pin()


def cases():
    names = paper_workload_names()
    names += [f"gen-{seed}" for seed in range(GENERATED)]
    return [(name, config) for name in names for config in PBS_CONFIGS]


def case_id(name, config):
    return f"{name}/{config}"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(case_id(*case) for case in cases())


def test_pins_exercise_every_decision_mode(pinned):
    """The corpus is only a pin if it reaches each PBS path."""
    totals = {}
    for pin in pinned.values():
        for key, value in pin["stats"].items():
            totals[key] = totals.get(key, 0) + value
    for key in ("hits", "bootstraps", "fallbacks", "const_mismatches",
                "capacity_rejects", "value_count_rejects",
                "deep_call_rejects", "loop_flushes", "allocations"):
        assert totals[key] > 0, key
    assert any(pin["context"]["evictions"] for pin in pinned.values())


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("name,config", cases())
def test_tier_matches_pin(name, config, tier, pinned):
    assert run_pin(name, config, tier) == pinned[case_id(name, config)]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(
        {case_id(*case): run_pin(*case, "interp") for case in cases()},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {FIXTURE}")
