#!/usr/bin/env python3
"""Reinforcement learning under PBS: the epsilon-greedy bandit.

The paper's learning workload (Section II-A3): an epsilon-greedy agent
pulls one of eight Bernoulli arms per step; the explore/exploit decision
``rand() < epsilon`` is the marked probabilistic branch.  This example
shows

* the agent still learns (reward/regret) when PBS replays decisions,
* the MPKI/IPC effect on both baseline predictors, and
* the PBS engine's internal behaviour (bootstraps, hits, context flushes).

Run:  python examples/bandit_learning.py
"""

import os

from repro.branch import TageSCL, Tournament
from repro.core import PBSConfig, PBSEngine
from repro.pipeline import OoOCore, four_wide
from repro.workloads import get_workload
from repro.workloads.bandit import ARM_PROBS, BEST_PROB

# CI's docs-smoke job shrinks every example via REPRO_EXAMPLE_SCALE.
SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))
SEED = 3


def main():
    workload = get_workload("bandit")
    print("=== Epsilon-greedy bandit with Probabilistic Branch Support ===")
    print(f"arms: {ARM_PROBS} (best: {BEST_PROB})\n")

    baseline = workload.run(scale=SCALE, seed=SEED)
    engine = PBSEngine(PBSConfig())
    with_pbs = workload.run(scale=SCALE, seed=SEED, pbs=engine)

    print("learning outcome:")
    for key in ("average_reward", "regret"):
        print(f"  {key:15s}: {baseline.outputs[key]:10.3f} (baseline)  "
              f"{with_pbs.outputs[key]:10.3f} (PBS)")
    error = workload.accuracy_error(baseline.outputs, with_pbs.outputs)
    print(f"  reward deviation under PBS: {100 * error:.3f}%\n")

    print("performance (4-wide core):")
    for label, predictor_factory in (
        ("tournament-1kb", Tournament),
        ("tage-sc-l-8kb", TageSCL),
    ):
        base_core = OoOCore(four_wide(), predictor_factory())
        workload.run(scale=SCALE, seed=SEED, sink=base_core)
        base_stats = base_core.finalize()

        pbs_core = OoOCore(four_wide(), predictor_factory())
        workload.run(scale=SCALE, seed=SEED, pbs=PBSEngine(), sink=pbs_core)
        pbs_stats = pbs_core.finalize()

        print(f"  {label:15s} IPC {base_stats.ipc:.3f} -> {pbs_stats.ipc:.3f}"
              f"   MPKI {base_stats.mpki:.3f} -> {pbs_stats.mpki:.3f}")

    print("\nPBS engine internals:")
    for key, value in engine.stats.as_dict().items():
        if value:
            print(f"  {key:20s}: {value}")


if __name__ == "__main__":
    main()
