"""Statistical corrector (the "SC" in TAGE-SC-L).

TAGE occasionally insists on a wrong prediction for statistically biased
branches (exactly the behaviour probabilistic branches trigger: a branch
that is taken 70% of the time with no history correlation).  The corrector
is a small GEHL-like perceptron over short histories plus a per-branch bias
table; when its weighted vote disagrees confidently with TAGE, it overrides.

Like TAGE, the per-branch work is generated once per geometry
(:mod:`repro.branch.codegen`); :func:`sc_lookup` and :func:`sc_train`
are the templates TAGE-SC-L fuses into its kernel.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .codegen import FoldPlan, block, compile_kernel, join

#: (bias entries, table entries, history lengths, TAGE weight, threshold)
SCGeometry = Tuple[int, int, Tuple[int, ...], int, int]

CTR_MIN, CTR_MAX = -32, 31  # 6-bit signed counters


def sc_plan(geometry: SCGeometry) -> FoldPlan:
    _, entries, lengths, _, _ = geometry
    index_bits = entries.bit_length() - 1
    return FoldPlan([(n, index_bits) for n in lengths], max(lengths) + 2)


def sc_lookup(geometry: SCGeometry, S: str, q: str) -> str:
    """Source computing the corrector's vote for ``pc`` given TAGE's
    proposal ``q``.  Binds the table indices ``b0`` (bias) and ``s0``…
    and the weighted sum ``total``; the corrector predicts
    ``total >= 0``."""
    bias_entries, entries, lengths, weight, _ = geometry
    plan = sc_plan(geometry)
    index_bits = entries.bit_length() - 1
    names = [f"s{j}" for j in range(len(lengths))]
    lines = [
        plan.load(S, "hc", "e"),
        f"{''.join(f'c{j}, ' for j in range(len(lengths)))}= {S}.tables",
        f"b0 = ((pc << 1) | (1 if {q} else 0)) & {bias_entries - 1}",
    ]
    for j, n in enumerate(lengths):
        lines.append(f"s{j} = (pc ^ {plan.expr(n, index_bits, 'hc', 'e')}) & {entries - 1}")
    # Each counter votes 2 * c + 1; TAGE's proposal votes +-weight.
    votes = " + ".join(f"c{j}[{name}]" for j, name in enumerate(names))
    odd = len(lengths) + 1
    lines.append(
        f"total = 2 * ({S}.bias[b0] + {votes}) "
        f"+ ({odd + weight} if {q} else {odd - weight})"
    )
    return "\n".join(lines)


def sc_train(geometry: SCGeometry, S: str) -> str:
    """Source training the corrector state ``S`` with the names
    :func:`sc_lookup` bound, then shifting ``b`` into its history."""
    _, _, lengths, _, threshold = geometry
    counters = [("bias", "b0")] + [(f"c{j}", f"s{j}") for j in range(len(lengths))]
    up = "\n".join(
        f"x = {t}[{k}]\nif x < {CTR_MAX}:\n    {t}[{k}] = x + 1" for t, k in counters
    )
    down = "\n".join(
        f"x = {t}[{k}]\nif x > {CTR_MIN}:\n    {t}[{k}] = x - 1" for t, k in counters
    )
    return join(
        # Train on mispredictions and on correct predictions whose margin
        # is below the threshold.  The default threshold exceeds the
        # maximum attainable |total| but for a handful of vote patterns,
        # i.e. the counters train on (nearly) every branch: on i.i.d.
        # biased branches (exactly what probabilistic branches look like)
        # the counters then saturate at the bias sign instead of
        # dithering around zero, which a small dead-zone threshold
        # provokes (each update moves |total| by twice the number of
        # tables, overshooting any small dead zone).
        f"if (total >= 0) != taken or -{threshold} <= total <= {threshold}:",
        f"    bias = {S}.bias",
        f"    {''.join(f'c{j}, ' for j in range(len(lengths)))}= {S}.tables",
        "    if taken:",
        block(up, 2),
        "    else:",
        block(down, 2),
        sc_plan(geometry).shift(S, "hc", "e", "b"),
    )


def sc_source(geometry: SCGeometry) -> str:
    return join(
        "def combine(s, pc, tage_pred):",
        block(sc_lookup(geometry, "s", "tage_pred"), 1),
        "    s._ctx = (b0, " + "".join(f"s{j}, " for j in range(len(geometry[2]))) + "total)",
        "    return total >= 0",
        "",
        "def update(s, pc, taken):",
        "    ctx = s._ctx",
        "    if ctx is None:",
        "        combine(s, pc, False)",
        "        ctx = s._ctx",
        "    s._ctx = None",
        "    b0, " + "".join(f"s{j}, " for j in range(len(geometry[2]))) + "total = ctx",
        "    b = 1 if taken else 0",
        block(sc_train(geometry, "s"), 1),
        "",
        "def insert_history(s, pc, taken):",
        "    s._ctx = None",
        "    b = 1 if taken else 0",
        block(sc_plan(geometry).shift("s", "hc", "e", "b"), 1),
    )


class StatisticalCorrector:
    """GEHL-style corrector with one bias table and short-history tables."""

    CTR_MIN, CTR_MAX = CTR_MIN, CTR_MAX

    def __init__(
        self,
        bias_entries: int = 512,
        table_entries: int = 256,
        history_lengths: Sequence[int] = (4, 10, 16),
        tage_weight: int = 9,
        threshold: int = 256,
    ):
        self.bias_entries = bias_entries
        self.table_entries = table_entries
        self.history_lengths = tuple(history_lengths)
        self.tage_weight = tage_weight
        self.threshold = threshold
        self._kernel = compile_kernel(sc_source, self.geometry)
        self.reset()

    @property
    def geometry(self) -> SCGeometry:
        return (self.bias_entries, self.table_entries, self.history_lengths,
                self.tage_weight, self.threshold)

    # ------------------------------------------------------------------
    def combine(self, pc: int, tage_pred: bool) -> bool:
        """Final prediction given TAGE's proposal."""
        return self._kernel.combine(self, pc, tage_pred)

    def update(self, pc: int, taken: bool) -> None:
        self._kernel.update(self, pc, taken)

    def insert_history(self, pc: int, taken: bool) -> None:
        self._kernel.insert_history(self, pc, taken)

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        counters = len(self.bias) + sum(len(t) for t in self.tables)
        return counters * 6 + (max(self.history_lengths) + 2)

    def reset(self) -> None:
        self.bias = [0] * self.bias_entries
        self.tables: List[List[int]] = [
            [0] * self.table_entries for _ in self.history_lengths
        ]
        self._history = 0
        self._folds = sc_plan(self.geometry).cold()
        self._ctx = None
