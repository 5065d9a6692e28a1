"""TAGE-SC-L: TAGE + statistical corrector + loop predictor, 8 KB budget.

The paper's second baseline: "an 8 KB TAGE-SC-L predictor taken from the
2016 Branch Prediction Championship" (Section VI-B).  Our from-scratch
implementation keeps the championship predictor's structure — a TAGE core,
a confident loop predictor that overrides, and a statistical corrector that
can flip low-confidence TAGE predictions — within the same storage budget.

Storage budget (default configuration):

===========  =============================  =======
component    configuration                  bits
===========  =============================  =======
TAGE base    4096 x 2-bit bimodal           8192
TAGE tagged  6 tables x 512 x 14 bits       43008
TAGE misc    66-bit history, 4 + 16 bits    86
loop         32 entries x 39 bits           1248
corrector    (512 + 3 x 256) x 6-bit + 18h  7698
total                                       60232  (< 65536 = 8 KB)
===========  =============================  =======

The three components keep their own state, but a TAGE-SC-L branch runs
through one generated kernel per geometry that fuses the TAGE, loop and
corrector templates into a single straight-line ``predict`` and
``update`` (:mod:`repro.branch.codegen`).
"""

from __future__ import annotations

from .base import BranchPredictor
from .codegen import block, compile_kernel, join
from .corrector import StatisticalCorrector, sc_lookup, sc_plan, sc_train
from .loop import LoopPredictor, loop_entry, loop_hit, loop_train
from .tage import Tage, tage_lookup, tage_plan, tage_train


def tagescl_source(geometry) -> str:
    tage, sc, loop = geometry
    sc_names = "b0, " + "".join(f"s{j}, " for j in range(len(sc[2]))) + "total"
    carry = f"tp, pp, ap, pi, prov, ai, I, G, {sc_names}"
    return join(
        # ``cold`` replays an update that had no prediction: the corrector
        # then votes as if TAGE had proposed not-taken.
        "def predict(s, pc, cold=False):",
        "    T = s.tage",
        "    S = s.corrector",
        "    L = s.loop",
        block(tage_lookup(tage, "T"), 1),
        "    q = False if cold else tp",
        block(sc_lookup(sc, "S", "q"), 1),
        f"    s._ctx = ({carry})",
        block(loop_entry(loop), 1),
        # A confident loop entry overrides everything.
        f"    if {loop_hit(loop, 'L')}:",
        "        return L._cur[le] < L._past[le]",
        "    return total >= 0",
        "",
        "def update(s, pc, taken):",
        "    ctx = s._ctx",
        "    if ctx is None:",
        "        predict(s, pc, True)",
        "        ctx = s._ctx",
        "    s._ctx = None",
        f"    {carry} = ctx",
        "    T = s.tage",
        "    S = s.corrector",
        "    L = s.loop",
        block(tage_train(tage, "T"), 1),
        block(sc_train(sc, "S"), 1),
        block(loop_train(loop, "L"), 1),
        "",
        "def insert_history(s, pc, taken):",
        "    s._ctx = None",
        "    b = 1 if taken else 0",
        block(tage_plan(tage).shift("s.tage", "h", "f", "b"), 1),
        block(sc_plan(sc).shift("s.corrector", "hc", "e", "b"), 1),
    )


class TageSCL(BranchPredictor):
    """The composed TAGE-SC-L predictor."""

    def __init__(
        self,
        tage: Tage = None,
        corrector: StatisticalCorrector = None,
        loop: LoopPredictor = None,
    ):
        self.tage = tage if tage is not None else Tage()
        self.corrector = (
            corrector if corrector is not None else StatisticalCorrector()
        )
        self.loop = loop if loop is not None else LoopPredictor(entries=32)
        self._kernel = compile_kernel(tagescl_source, self.geometry)
        self._ctx = None

    @property
    def name(self) -> str:
        return "tage-sc-l-8kb"

    @property
    def geometry(self):
        return (self.tage.geometry, self.corrector.geometry, self.loop.geometry)

    def predict(self, pc: int) -> bool:
        return self._kernel.predict(self, pc)

    def update(self, pc: int, taken: bool) -> None:
        self._kernel.update(self, pc, taken)

    def insert_history(self, pc: int, taken: bool) -> None:
        self._kernel.insert_history(self, pc, taken)

    def storage_bits(self) -> int:
        return (
            self.tage.storage_bits()
            + self.corrector.storage_bits()
            + self.loop.storage_bits()
        )

    def reset(self) -> None:
        self.tage.reset()
        self.corrector.reset()
        self.loop.reset()
        self._ctx = None
