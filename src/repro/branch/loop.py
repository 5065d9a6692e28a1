"""Loop predictor: recognises branches with a fixed trip count.

The Pentium-M documents a loop-branch predictor alongside its bimodal and
global components, and TAGE-SC-L ("L") carries one too.  The predictor
learns the iteration count of a loop-closing branch and predicts the final
(exit) iteration correctly — something counter-based predictors always get
wrong once per loop execution.

Entries are flat per-field int lists.  The per-branch work is generated
once per geometry (:mod:`repro.branch.codegen`); :func:`loop_hit` and
:func:`loop_train` are the templates TAGE-SC-L fuses into its kernel.
"""

from __future__ import annotations

from typing import Tuple

from .base import BranchPredictor
from .codegen import block, compile_kernel, join

#: (entries, tag bits, count bits)
LoopGeometry = Tuple[int, int, int]

MAX_CONFIDENCE = 3


def loop_entry(geometry: LoopGeometry) -> str:
    entries, tag_bits, _ = geometry
    return (
        f"le = pc & {entries - 1}\n"
        f"lt = (pc >> {entries.bit_length() - 1}) & {(1 << tag_bits) - 1}"
    )


def loop_hit(geometry: LoopGeometry, L: str) -> str:
    """Source for the condition "``pc`` has a confident entry in ``L``",
    given the names ``le``/``lt`` bound by the entry-and-tag lines."""
    return (f"{L}._tag[le] == lt and {L}._conf[le] >= {MAX_CONFIDENCE} "
            f"and {L}._past[le] > 0")


def loop_train(geometry: LoopGeometry, L: str) -> str:
    """Source training the loop state ``L`` on ``pc``/``taken``."""
    _, _, count_bits = geometry
    return join(loop_entry(geometry), block(f"""
        ltag = {L}._tag
        if ltag[le] != lt:
            # Allocate on a taken branch (candidate loop-closing branch).
            if taken:
                lage = {L}._age
                if lage[le] > 0:
                    lage[le] -= 1
                else:
                    ltag[le] = lt
                    {L}._past[le] = 0
                    {L}._cur[le] = 1
                    {L}._conf[le] = 0
                    lage[le] = 3
        elif taken == True:  # the body direction
            lcur = {L}._cur
            n = lcur[le] + 1
            lcur[le] = n
            if n > {(1 << count_bits) - 1}:
                # Loop too long to track: give the entry up.
                ltag[le] = -1
        else:
            # The loop exited; compare with the recorded trip count.
            n = {L}._cur[le]
            lpast = {L}._past
            if lpast[le] == n:
                lconf = {L}._conf
                if lconf[le] < {MAX_CONFIDENCE}:
                    lconf[le] += 1
            else:
                lpast[le] = n
                {L}._conf[le] = 0
            {L}._cur[le] = 0
            {L}._age[le] = 3
    """))


def loop_source(geometry: LoopGeometry) -> str:
    return join(
        "def hit(s, pc):",
        block(loop_entry(geometry), 1),
        f"    return {loop_hit(geometry, 's')}",
        "",
        "def predict(s, pc):",
        block(loop_entry(geometry), 1),
        "    past = s._past[le]",
        "    if s._tag[le] != lt or past == 0:",
        "        return True",
        # past_count body iterations precede the exit, so the exit is the
        # iteration at which current_count has already reached past_count.
        "    return s._cur[le] < past",
        "",
        "def update(s, pc, taken):",
        block(loop_train(geometry, "s"), 1),
    )


class LoopPredictor(BranchPredictor):
    """Tagged loop-termination predictor.

    An entry tracks ``past_count`` (``_past``), the trip count observed
    on the last complete execution of the loop.  While ``confidence``
    (``_conf``) is saturated the predictor asserts a hit: it predicts the
    body direction, taken, until ``current_count`` (``_cur``) reaches
    ``past_count``, then predicts the exit.  Entries are only allocated
    by taken branches, so the body direction is always taken.

    :meth:`predict` returns the plain direction guess; :meth:`hit` tells a
    combiner whether the entry is confident enough to override.
    """

    MAX_CONFIDENCE = MAX_CONFIDENCE

    def __init__(self, entries: int = 64, tag_bits: int = 10,
                 count_bits: int = 12):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.tag_bits = tag_bits
        self.count_bits = count_bits
        self._kernel = compile_kernel(loop_source, self.geometry)
        self.reset()

    @property
    def name(self) -> str:
        return f"loop-{self.entries}"

    @property
    def geometry(self) -> LoopGeometry:
        return (self.entries, self.tag_bits, self.count_bits)

    def hit(self, pc: int) -> bool:
        """Whether this branch has a confident loop entry."""
        return self._kernel.hit(self, pc)

    def predict(self, pc: int) -> bool:
        return self._kernel.predict(self, pc)

    def update(self, pc: int, taken: bool) -> None:
        self._kernel.update(self, pc, taken)

    def storage_bits(self) -> int:
        per_entry = (
            self.tag_bits
            + 2 * self.count_bits  # past + current
            + 2                    # confidence
            + 2                    # age
            + 1                    # direction (modelled; always taken here)
        )
        return self.entries * per_entry

    def reset(self) -> None:
        size = self.entries
        self._tag = [-1] * size
        self._past = [0] * size
        self._cur = [0] * size
        self._conf = [0] * size
        self._age = [0] * size
