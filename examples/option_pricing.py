#!/usr/bin/env python3
"""Option pricing under PBS: the paper's financial workloads end to end.

Prices a digital option (DOP) and computes option Greeks by Monte Carlo —
the two financial benchmarks from the paper — on the simulated 4-wide
out-of-order core, with and without Probabilistic Branch Support, and
reports both the performance gain and the pricing accuracy impact.

Greeks is the paper's canonical *Category-2* workload: the probabilistic
value (the simulated terminal price) is consumed by code after the branch,
so PBS must swap register values, not just steer fetch.

Run:  python examples/option_pricing.py
"""

import os

from repro.branch import TageSCL, Tournament
from repro.core import PBSEngine
from repro.pipeline import OoOCore, four_wide
from repro.workloads import get_workload

# CI's docs-smoke job shrinks every example via REPRO_EXAMPLE_SCALE.
SCALE = 0.5 * float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))
SEED = 7


def evaluate(workload_name: str):
    workload = get_workload(workload_name)

    baseline_core = OoOCore(four_wide(), TageSCL())
    baseline = workload.run(scale=SCALE, seed=SEED, sink=baseline_core)
    baseline_stats = baseline_core.finalize()

    pbs_core = OoOCore(four_wide(), TageSCL())
    engine = PBSEngine()
    with_pbs = workload.run(
        scale=SCALE, seed=SEED, pbs=engine, sink=pbs_core
    )
    pbs_stats = pbs_core.finalize()

    return baseline, baseline_stats, with_pbs, pbs_stats, engine


def report(workload_name: str, interesting_outputs):
    baseline, base_stats, with_pbs, pbs_stats, engine = evaluate(workload_name)
    workload = baseline.workload
    print(f"--- {workload_name} ({workload.description}) ---")
    print(f"  category: {workload.paper.category}   "
          f"probabilistic branches: {workload.paper.prob_branches}")
    print(f"  IPC   : {base_stats.ipc:.3f} -> {pbs_stats.ipc:.3f} "
          f"({100 * (pbs_stats.ipc / base_stats.ipc - 1):+.1f}%)")
    print(f"  MPKI  : {base_stats.mpki:.3f} -> {pbs_stats.mpki:.3f}")
    print(f"  PBS   : {engine.stats.hit_rate * 100:.1f}% steady-state hits")
    for key in interesting_outputs:
        print(f"  {key:12s}: {baseline.outputs[key]:.6f} (baseline)  "
              f"{with_pbs.outputs[key]:.6f} (PBS)")
    error = workload.accuracy_error(baseline.outputs, with_pbs.outputs)
    print(f"  pricing error under PBS: {100 * error:.4f}%\n")


def main():
    print("=== Monte Carlo option pricing with Probabilistic Branch "
          "Support ===\n")
    report("dop", ["call_price", "put_price"])
    report("greeks", ["price", "delta", "gamma"])

    # The return-on-investment argument of Figure 7: a 1 KB tournament
    # predictor + 193 bytes of PBS beats the 8 KB TAGE-SC-L alone.
    workload = get_workload("greeks")
    tournament_pbs_core = OoOCore(four_wide(), Tournament())
    workload.run(
        scale=SCALE, seed=SEED, pbs=PBSEngine(),
        sink=tournament_pbs_core,
    )
    tagescl_core = OoOCore(four_wide(), TageSCL())
    workload.run(scale=SCALE, seed=SEED, sink=tagescl_core)
    print("return on investment (greeks):")
    print(f"  1 KB tournament + 193 B PBS : "
          f"IPC {tournament_pbs_core.finalize().ipc:.3f}")
    print(f"  8 KB TAGE-SC-L, no PBS      : "
          f"IPC {tagescl_core.finalize().ipc:.3f}")


if __name__ == "__main__":
    main()
