"""Table I: applicability of predication and CFD.

The static analysis lives in :mod:`repro.transforms.analysis`; this
experiment additionally *proves* the positive entries by building each
applicable variant and checking it runs to the same outputs.
"""

from __future__ import annotations

from ..engines import create_engine
from ..sim import Session, get_workload, paper_workload_names
from ..transforms import TABLE1, build_cfd, build_predicated
from .common import ExperimentResult

TITLE = "Table I: can predication / CFD be applied?"
PAPER_CLAIM = (
    "predication fails for five of eight benchmarks (if-conversion), CFD "
    "for three (non-inlinable calls, loop-carried dependences); PBS "
    "applies to all eight"
)

VERIFY_SCALE = 0.05


def _verify_variant(kind: str, name: str) -> str:
    """Build + run the variant; compare outputs with the original."""
    workload = get_workload(name)
    original = Session(name, scale=VERIFY_SCALE, seed=2).run().outputs
    if kind == "predication":
        program = build_predicated(name, scale=VERIFY_SCALE)
    else:
        program = build_cfd(name, scale=VERIFY_SCALE).program
    state = create_engine().executor(program, seed=2).run()
    outputs = workload.outputs(state)
    return "yes (verified)" if outputs == original else "yes (DIVERGES!)"


def run(verify: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        TITLE,
        columns=["benchmark", "predication", "cfd", "pbs"],
        paper_claim=PAPER_CLAIM,
    )
    for name in paper_workload_names():
        row = TABLE1[name]
        if row.predication:
            predication = _verify_variant("predication", name) if verify else "yes"
        else:
            predication = f"no ({row.predication_reason})"
        if row.cfd:
            cfd = _verify_variant("cfd", name) if verify else "yes"
        else:
            cfd = f"no ({row.cfd_reason})"
        result.add_row(benchmark=name, predication=predication, cfd=cfd, pbs="yes")
    return result


def main(scale: float = None) -> None:  # scale unused; uniform CLI signature
    print(run().render())
