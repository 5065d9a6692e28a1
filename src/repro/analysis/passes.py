"""The built-in analysis passes.

Five studies ship with the package, all streaming (O(sites) memory, one
look at each event) and all deterministic — per-branch tables are sorted
by a stable key so ``repro analyze --json`` output is byte-reproducible
for a given trace:

==================  ====================================================
``instruction-mix``  dynamic opcode/functional-unit mix, branch and
                     memory densities
``branch-entropy``   per-branch Shannon entropy of the direction stream
                     (the paper's motivation: probabilistic branches sit
                     near 1 bit/execution, beyond any predictor)
``taken-rate``       histogram of per-branch-site taken rates, by site
                     and by execution
``mispredicts``      per-branch mispredict breakdown under real
                     predictors — aggregate counters bit-identical to
                     the equivalent :class:`~repro.sim.Session` run
``working-set``      memory working set: unique addresses, read/write
                     split, address range
==================  ====================================================
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import compress
from typing import Dict, Optional, Sequence

from ..functional.trace import EventBatch, ProbMode
from ..isa.opcodes import OpClass
from .base import AnalysisPass, register_analysis

#: OpClass value -> name, decoded once (the hot loops index by int).
_CLASS_NAMES = {int(op_class): op_class.name for op_class in OpClass}


def direction_entropy(taken: int, executions: int) -> float:
    """Shannon entropy (bits/execution) of a branch's direction stream,
    from its empirical taken rate.  0 executions or a degenerate rate
    (always / never taken) carry no information: 0.0 bits."""
    if executions <= 0 or taken <= 0 or taken >= executions:
        return 0.0
    p = taken / executions
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


class _BranchSites:
    """Shared per-site accounting: pc -> (executions, taken, prob)."""

    def __init__(self):
        self.executions: Counter = Counter()
        self.taken: Counter = Counter()
        self.prob: set = set()

    def observe(self, event) -> None:
        pc = event.pc
        self.executions[pc] += 1
        if event.taken:
            self.taken[pc] += 1
        if event.prob_mode != ProbMode.NOT_PROB:
            self.prob.add(pc)


@register_analysis("instruction-mix")
class InstructionMix(AnalysisPass):
    """Dynamic instruction mix by opcode class, plus branch/memory density."""

    def __init__(self):
        self.instructions = 0
        self.by_class: Counter = Counter()
        self.cond_branches = 0
        self.taken = 0
        self.prob_branches = 0
        self.pbs_hits = 0
        self.loads = 0
        self.stores = 0

    def __call__(self, event) -> None:
        self.instructions += 1
        self.by_class[event.op_class] += 1
        if event.addr is not None:
            if event.is_store:
                self.stores += 1
            else:
                self.loads += 1
        if event.is_cond_branch:
            self.cond_branches += 1
            if event.taken:
                self.taken += 1
            prob_mode = event.prob_mode
            if prob_mode != ProbMode.NOT_PROB:
                self.prob_branches += 1
                if prob_mode == ProbMode.PBS_HIT:
                    self.pbs_hits += 1

    def result(self) -> Dict:
        total = self.instructions
        return {
            "instructions": total,
            "by_class": {
                _CLASS_NAMES[op_class]: {
                    "count": count,
                    "fraction": count / total if total else 0.0,
                }
                for op_class, count in sorted(self.by_class.items())
            },
            "branches": {
                "conditional": self.cond_branches,
                "taken": self.taken,
                "taken_rate": (
                    self.taken / self.cond_branches if self.cond_branches else 0.0
                ),
                "probabilistic": self.prob_branches,
                "pbs_hits": self.pbs_hits,
                "per_kilo_instruction": (
                    1000.0 * self.cond_branches / total if total else 0.0
                ),
            },
            "memory": {
                "loads": self.loads,
                "stores": self.stores,
                "per_kilo_instruction": (
                    1000.0 * (self.loads + self.stores) / total if total else 0.0
                ),
            },
        }


@register_analysis("branch-entropy")
class BranchEntropy(AnalysisPass):
    """Per-branch direction entropy — the paper's core quantity.

    A probabilistic branch with ``p ≈ 0.5`` carries ~1 bit per execution
    that no history-based predictor can learn; regular loop branches sit
    near 0.  The pass reports per-site entropy plus execution-weighted
    aggregates split by regular versus probabilistic sites.

    ``top`` bounds the per-branch table (highest total entropy first);
    ``None`` keeps every site.
    """

    def __init__(self, top: Optional[int] = 20):
        self.top = top
        self.sites = _BranchSites()
        self.instructions = 0

    def __call__(self, event) -> None:
        self.instructions += 1
        if event.is_cond_branch:
            self.sites.observe(event)

    def _aggregate(self, pcs) -> Dict:
        executions = sum(self.sites.executions[pc] for pc in pcs)
        total_bits = sum(
            self.sites.executions[pc]
            * direction_entropy(self.sites.taken[pc], self.sites.executions[pc])
            for pc in pcs
        )
        return {
            "sites": len(pcs),
            "executions": executions,
            "total_entropy_bits": total_bits,
            "bits_per_execution": total_bits / executions if executions else 0.0,
        }

    def result(self) -> Dict:
        executions = self.sites.executions
        per_branch = [
            {
                "pc": pc,
                "executions": count,
                "taken_rate": self.sites.taken[pc] / count,
                "entropy_bits": direction_entropy(self.sites.taken[pc], count),
                "total_entropy_bits": count
                * direction_entropy(self.sites.taken[pc], count),
                "probabilistic": pc in self.sites.prob,
            }
            for pc, count in executions.items()
        ]
        per_branch.sort(key=lambda row: (-row["total_entropy_bits"], row["pc"]))
        prob_pcs = [pc for pc in executions if pc in self.sites.prob]
        regular_pcs = [pc for pc in executions if pc not in self.sites.prob]
        return {
            "instructions": self.instructions,
            "overall": self._aggregate(list(executions)),
            "regular": self._aggregate(regular_pcs),
            "probabilistic": self._aggregate(prob_pcs),
            "per_branch": (
                per_branch[: self.top] if self.top is not None else per_branch
            ),
        }


@register_analysis("taken-rate")
class TakenRateHistogram(AnalysisPass):
    """Histogram of per-branch-site taken rates.

    Two views of the same sites: ``by_site`` counts each static branch
    once; ``by_execution`` weights each site by how often it ran, which
    is what the predictor actually experiences.
    """

    def __init__(self, bins: int = 10):
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.bins = bins
        self.sites = _BranchSites()

    def __call__(self, event) -> None:
        if event.is_cond_branch:
            self.sites.observe(event)

    def result(self) -> Dict:
        by_site = [0] * self.bins
        by_execution = [0] * self.bins
        for pc, count in self.sites.executions.items():
            rate = self.sites.taken[pc] / count
            index = min(int(rate * self.bins), self.bins - 1)
            by_site[index] += 1
            by_execution[index] += count
        return {
            "bins": self.bins,
            "edges": [index / self.bins for index in range(self.bins + 1)],
            "by_site": by_site,
            "by_execution": by_execution,
            "sites": len(self.sites.executions),
            "executions": sum(self.sites.executions.values()),
        }


@register_analysis("mispredicts")
class MispredictBreakdown(AnalysisPass):
    """Per-branch mispredict breakdown under real predictors.

    Runs one fresh :class:`~repro.branch.PredictorHarness` per named
    predictor over the stream — the exact component a
    :class:`~repro.sim.Session` attaches — so the aggregate counters are
    **bit-identical** to the equivalent live run.  On top of the
    harness, the pass charges every mispredicted row a harness returns
    to its branch site.

    ``predictors`` defaults to the paper's baselines; ``top`` bounds the
    per-branch tables (most mispredicts first), ``None`` keeps all.
    """

    def __init__(
        self,
        predictors: Optional[Sequence[str]] = None,
        top: Optional[int] = 20,
    ):
        from ..branch import PredictorHarness
        from ..sim.registry import baseline_predictors, create_predictor

        names = tuple(predictors) if predictors else baseline_predictors()
        self.top = top
        self.harnesses = {
            name: PredictorHarness(create_predictor(name)) for name in names
        }
        self.per_pc: Dict[str, Counter] = {name: Counter() for name in names}
        self.executions: Counter = Counter()

    def __call__(self, event) -> None:
        self.consume_batch(EventBatch.from_events((event,)))

    def consume_batch(self, batch) -> None:
        """Run every harness over the batch and charge each mispredicted
        row it returns to that row's branch site."""
        pcs = batch.pcs
        self.executions.update(compress(pcs, batch.conds))
        for name, harness in self.harnesses.items():
            per_pc = self.per_pc[name]
            for i in harness.consume_batch(batch):
                per_pc[pcs[i]] += 1

    def result(self) -> Dict:
        payload = {}
        for name, harness in self.harnesses.items():
            per_branch = [
                {
                    "pc": pc,
                    "executions": self.executions[pc],
                    "mispredicts": mispredicts,
                    "mispredict_rate": mispredicts / self.executions[pc],
                }
                for pc, mispredicts in self.per_pc[name].items()
            ]
            per_branch.sort(key=lambda row: (-row["mispredicts"], row["pc"]))
            payload[name] = {
                # The harness's own accounting, verbatim: matches the
                # PredictorMetrics a Session run reports for this
                # predictor, field for field.
                **harness.stats.as_dict(),
                "per_branch": (
                    per_branch[: self.top] if self.top is not None else per_branch
                ),
            }
        return payload


@register_analysis("working-set")
class WorkingSet(AnalysisPass):
    """Memory working set: unique addresses, read/write split, range."""

    def __init__(self):
        self.loads = 0
        self.stores = 0
        self.read: set = set()
        self.written: set = set()

    def __call__(self, event) -> None:
        addr = event.addr
        if addr is None:
            return
        if event.is_store:
            self.stores += 1
            self.written.add(addr)
        else:
            self.loads += 1
            self.read.add(addr)

    def result(self) -> Dict:
        touched = self.read | self.written
        return {
            "accesses": self.loads + self.stores,
            "loads": self.loads,
            "stores": self.stores,
            "unique_addresses": len(touched),
            "unique_read": len(self.read),
            "unique_written": len(self.written),
            "read_only": len(self.read - self.written),
            "address_range": (
                [min(touched), max(touched)] if touched else None
            ),
        }
