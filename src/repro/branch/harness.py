"""The branch step: one conditional-branch accounting rule for every consumer.

:func:`branch_step` walks the conditional-branch rows of an
:class:`~repro.functional.EventBatch`, drives a predictor with them and
accumulates per-category misprediction counts in a :class:`BranchStats`.
The categories mirror the paper's Figure 1: *probabilistic* branches
(PROB_JMP instances that consult the predictor) versus *regular*
branches.  It is the only implementation of that rule:
:class:`PredictorHarness` (MPKI, Figures 6 and 9), the out-of-order
core (IPC, Figures 7 and 8) and the ``mispredicts`` analysis pass all
compose it.

Three paper-specific behaviours live here:

* **PBS bypass** — rows marked :data:`ProbMode.PBS_HIT` never touch the
  predictor's tables and by construction never mispredict (Section
  III-B: the direction is known at fetch).  The known direction is
  shifted into the predictor's history unless ``pbs_inserts_history``
  is off.
* **Branch-on-queue** — control-flow decoupling's branches (at
  ``oracle_pcs``) read their predicate at fetch: never mispredicted and
  invisible to the predictor.
* **Filtering** (Figure 9's interference experiment) — with
  ``filter_probabilistic=True``, probabilistic branches do not access or
  update the predictor even though PBS is off; their own mispredictions
  are charged statically (not taken) so regular-branch interference can
  be isolated.

:class:`PredictorHarness` is a columnar trace sink around the step;
calling it with one :class:`~repro.functional.TraceEvent` is a one-row
adapter over :meth:`PredictorHarness.consume_batch`.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List

from ..functional.trace import EventBatch, ProbMode, TraceEvent
from .base import BranchPredictor


class BranchStats:
    """Misprediction counters split by branch category."""

    __slots__ = (
        "instructions",
        "regular_branches",
        "regular_mispredicts",
        "prob_branches",
        "prob_mispredicts",
        "pbs_hits",
    )

    def __init__(self):
        self.instructions = 0
        self.regular_branches = 0
        self.regular_mispredicts = 0
        self.prob_branches = 0
        self.prob_mispredicts = 0
        self.pbs_hits = 0

    @property
    def branches(self) -> int:
        return self.regular_branches + self.prob_branches + self.pbs_hits

    @property
    def mispredicts(self) -> int:
        return self.regular_mispredicts + self.prob_mispredicts

    @property
    def mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.mispredicts / self.instructions

    @property
    def regular_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.regular_mispredicts / self.instructions

    @property
    def prob_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.prob_mispredicts / self.instructions

    def as_dict(self) -> Dict[str, float]:
        return {
            "instructions": self.instructions,
            "regular_branches": self.regular_branches,
            "regular_mispredicts": self.regular_mispredicts,
            "prob_branches": self.prob_branches,
            "prob_mispredicts": self.prob_mispredicts,
            "pbs_hits": self.pbs_hits,
            "mpki": self.mpki,
        }


def branch_step(
    predictor: BranchPredictor,
    stats: BranchStats,
    batch: EventBatch,
    filter_probabilistic: bool,
    pbs_inserts_history: bool,
    oracle_pcs,
) -> List[int]:
    """Account every row of ``batch`` in ``stats``; return the
    indices of the mispredicted conditional-branch rows, in order.

    Only conditional-branch rows are visited (``compress`` over the
    ``conds`` column is a C-level scan).  Each is handled by the first
    arm that applies: PBS hit, branch-on-queue (``oracle_pcs``),
    filtered probabilistic branch, perfect predictor, then predict and
    update.  A predictor that declares a ``static_prediction`` has its
    table calls folded away.
    """
    conds = batch.conds
    stats.instructions += len(conds)

    perfect = predictor.perfect
    static_prediction = None if perfect else predictor.static_prediction
    predict = predictor.predict
    update = predictor.update
    insert_history = predictor.insert_history
    pcs = batch.pcs
    takens = batch.takens
    prob_modes = batch.prob_modes
    PBS_HIT = ProbMode.PBS_HIT
    PREDICTED = ProbMode.PREDICTED

    mispredicted: List[int] = []
    miss = mispredicted.append
    regular_branches = 0
    regular_mispredicts = 0
    prob_branches = 0
    prob_mispredicts = 0
    pbs_hits = 0

    for i in compress(range(len(conds)), conds):
        pc = pcs[i]
        prob_mode = prob_modes[i]
        taken = takens[i]
        if prob_mode == PBS_HIT:
            # PBS supplies the direction at fetch: the predictor is
            # neither probed nor updated.
            pbs_hits += 1
            if pbs_inserts_history:
                insert_history(pc, taken)
        elif pc in oracle_pcs:
            # CFD branch-on-queue: the predicate is waiting at fetch.
            regular_branches += 1
        elif prob_mode == PREDICTED and filter_probabilistic:
            # Figure 9 experiment: keep probabilistic branches out of
            # the predictor; charge them a static not-taken prediction.
            prob_branches += 1
            if taken:
                prob_mispredicts += 1
                miss(i)
        elif perfect:
            if prob_mode == PREDICTED:
                prob_branches += 1
            else:
                regular_branches += 1
        else:
            if static_prediction is None:
                prediction = predict(pc)
                update(pc, taken)
            else:
                # Vectorized-update kernel: the predictor declared a
                # constant prediction and a no-op update, so the table
                # calls fold away entirely.
                prediction = static_prediction
            if prob_mode == PREDICTED:
                prob_branches += 1
                if prediction != taken:
                    prob_mispredicts += 1
                    miss(i)
            else:
                regular_branches += 1
                if prediction != taken:
                    regular_mispredicts += 1
                    miss(i)

    stats.regular_branches += regular_branches
    stats.regular_mispredicts += regular_mispredicts
    stats.prob_branches += prob_branches
    stats.prob_mispredicts += prob_mispredicts
    stats.pbs_hits += pbs_hits
    return mispredicted


class PredictorHarness:
    """Feeds conditional-branch rows to a predictor and keeps stats."""

    def __init__(
        self,
        predictor: BranchPredictor,
        filter_probabilistic: bool = False,
        pbs_inserts_history: bool = True,
    ):
        self.predictor = predictor
        self.filter_probabilistic = filter_probabilistic
        #: PBS knows the direction at fetch, so the hardware shifts it
        #: into the predictor's history register for free (no table
        #: access).  Keeps history-correlated regular branches accurate.
        self.pbs_inserts_history = pbs_inserts_history
        self.stats = BranchStats()

    def __call__(self, event: TraceEvent) -> None:
        self.consume_batch(EventBatch.from_events((event,)))

    def consume_batch(self, batch: EventBatch) -> List[int]:
        """Account one batch; returns its mispredicted row indices."""
        return branch_step(
            self.predictor,
            self.stats,
            batch,
            self.filter_probabilistic,
            self.pbs_inserts_history,
            frozenset(),
        )


def measure_mpki(
    events,
    predictor: BranchPredictor,
    filter_probabilistic: bool = False,
) -> BranchStats:
    """Convenience: run a stored event list through a fresh harness."""
    harness = PredictorHarness(predictor, filter_probabilistic)
    harness.consume_batch(EventBatch.from_events(events))
    return harness.stats
