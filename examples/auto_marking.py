#!/usr/bin/env python3
"""Compiler support (paper §V-B): marking probabilistic branches
automatically.

The paper expects either the programmer or the compiler to mark
probabilistic branches.  This example feeds an *unmarked* Monte Carlo
kernel through the library's auto-marking pass, which

1. taints every value derived from a RAND instruction (dataflow fixpoint),
2. finds compare/branch pairs controlled by tainted values,
3. statically checks the §IV safety rule (the comparison partner must be
   loop-invariant), rejecting e.g. simulated-annealing-style decaying
   thresholds,
4. rewrites eligible branches into PROB_CMP/PROB_JMP.

Run:  python examples/auto_marking.py
"""

import os

from repro.branch import TageSCL
from repro.compiler import mark_probabilistic_branches
from repro.core import PBSEngine
from repro.functional import Executor
from repro.isa import assemble, disassemble
from repro.pipeline import OoOCore, four_wide

# CI's docs-smoke job shrinks every example via REPRO_EXAMPLE_SCALE.
ITERATIONS = max(1, int(8000 * float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))))

UNMARKED = f"""
; monte carlo kernel, written WITHOUT probabilistic instructions
    li   r1, 0          ; hits
    li   r2, {ITERATIONS}       ; iterations
    li   r3, 0          ; i
    fli  f4, 0.6        ; a loop-invariant threshold
loop:
    rand f1
    rand f2
    fmul f3, f1, f2     ; derived probabilistic value
    cmp  lt, f3, f4     ; candidate 1: tainted vs loop-invariant
    jt   hit
    jmp  next
hit:
    add  r1, r1, 1
next:
    add  r3, r3, 1
    blt  r3, r2, loop   ; clean loop branch: must NOT be converted
    out  r1
    halt
"""


def measure(program, pbs=False, seed=13):
    core = OoOCore(four_wide(), TageSCL())
    executor = Executor(program, seed=seed, pbs=PBSEngine() if pbs else None)
    state = executor.run(sink=core)
    return core.finalize(), state.output()[0]


def main():
    program = assemble(UNMARKED, "unmarked")
    converted, report = mark_probabilistic_branches(program)

    print("=== automatic probabilistic-branch marking ===\n")
    print(report.render())
    print("\nconverted kernel (excerpt):")
    for line in disassemble(converted).splitlines():
        if "prob_" in line:
            print(f"  {line.strip()}")

    base_stats, base_hits = measure(program)
    pbs_stats, pbs_hits = measure(converted, pbs=True)
    print(f"\nunmarked + TAGE-SC-L : IPC {base_stats.ipc:.3f}, "
          f"MPKI {base_stats.mpki:.3f}")
    print(f"auto-marked + PBS    : IPC {pbs_stats.ipc:.3f}, "
          f"MPKI {pbs_stats.mpki:.3f}")
    print(f"outputs: {base_hits} vs {pbs_hits} hits of {ITERATIONS}")

    stack_base = base_stats.cpi_stack(width=4)
    stack_pbs = pbs_stats.cpi_stack(width=4)
    print("\nCPI stacks (cycles per instruction):")
    print(f"  {'component':10s}{'unmarked':>10s}{'auto+PBS':>10s}")
    for key in ("base", "branch", "other"):
        print(f"  {key:10s}{stack_base[key]:>10.3f}{stack_pbs[key]:>10.3f}")


if __name__ == "__main__":
    main()
