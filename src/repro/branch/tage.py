"""TAGE: tagged geometric-history-length branch predictor (Seznec &
Michaud, JILP 2006).

A bimodal base predictor is backed by several tagged tables indexed with
hashes of geometrically increasing global-history lengths.  The longest
matching table provides the prediction; allocation on mispredictions steers
hard branches toward longer histories.  This implementation follows the
championship code's structure (folded histories, u-bits with periodic
aging, use-alt-on-newly-allocated) scaled to the paper's 8 KB budget.

The tagged tables are flat int lists (``_ctrs``, ``_tags``, ``_us``),
table ``t`` at offset ``t * table_entries``.  The per-branch work is
generated once per geometry as straight-line source
(:mod:`repro.branch.codegen`); :func:`tage_lookup` and
:func:`tage_train` are the templates, which TAGE-SC-L fuses with its
corrector and loop predictor.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .base import BranchPredictor
from .codegen import FoldPlan, block, compile_kernel, join
from .simple import Bimodal

# Geometric history lengths.  Capped at 64: with the kernel-sized
# footprints this reproduction simulates, exact 100+-bit contexts almost
# never repeat, so entries allocated there on pattern flicker stay stale
# yet outrank reliable mid-length providers (measured as a 4x MPKI
# inflation on bandit's argmax scan).  64 bits still covers several
# iterations of every loop pattern in the workloads.
DEFAULT_HISTORY_LENGTHS = (2, 4, 8, 16, 32, 64)

CTR_MIN, CTR_MAX = -4, 3  # signed 3-bit counters; taken if >= 0

#: (base entries, table entries, tag bits, history lengths, aging period)
TageGeometry = Tuple[int, int, int, Tuple[int, ...], int]


def tage_plan(geometry: TageGeometry) -> FoldPlan:
    """One index fold and two tag folds per table, de-duplicated."""
    _, entries, tag_bits, lengths, _ = geometry
    index_bits = entries.bit_length() - 1
    pairs = [(n, w) for n in lengths for w in (index_bits, tag_bits, tag_bits - 1)]
    return FoldPlan(pairs, max(lengths) + 2)


def tage_lookup(geometry: TageGeometry, T: str) -> str:
    """Source looking ``pc`` up in the TAGE state ``T``.

    Binds ``tp`` (TAGE's prediction), ``pp``/``ap`` (provider and
    alternate predictions), ``pi``/``ai`` (their flat entry indices, -1
    when absent), ``prov`` (the provider table) and the per-table flat
    indices and tags ``I``/``G``, which :func:`tage_train` consumes.
    """
    base_entries, entries, tag_bits, lengths, _ = geometry
    plan = tage_plan(geometry)
    index_bits = entries.bit_length() - 1
    imask, tmask, bmask = entries - 1, (1 << tag_bits) - 1, base_entries - 1
    tables = len(lengths)
    lines = [f"tags = {T}._tags", plan.load(T, "h", "f")]
    for t, n in enumerate(lengths):
        shift = index_bits - t % index_bits or 1
        fold = plan.expr(n, index_bits, "h", "f")
        offset = f" | {t * entries}" if t else ""
        lines.append(
            f"i{t} = ((pc ^ (pc >> {shift}) ^ {fold} ^ {n & imask}) & {imask}){offset}"
        )
        lines.append(
            f"g{t} = (pc ^ {plan.expr(n, tag_bits, 'h', 'f')} "
            f"^ ({plan.expr(n, tag_bits - 1, 'h', 'f')} << 1)) & {tmask}"
        )
    # The longest matching table provides; the next matching one is the
    # alternate.
    keyword = "if"
    for p in range(tables - 1, -1, -1):
        lines.append(f"{keyword} tags[i{p}] == g{p}:")
        lines.append(f"    pi = i{p}")
        lines.append(f"    prov = {p}")
        alt_keyword = "if"
        for a in range(p - 1, -1, -1):
            lines.append(f"    {alt_keyword} tags[i{a}] == g{a}:")
            lines.append(f"        ai = i{a}")
            alt_keyword = "elif"
        lines.append("    else:" if p else "    ai = -1")
        if p:
            lines.append("        ai = -1")
        keyword = "elif"
    lines.append(block(f"""
        else:
            pi = prov = ai = -1
        if pi >= 0:
            ctrs = {T}._ctrs
            c = ctrs[pi]
            pp = c >= 0
            if ai >= 0:
                ap = ctrs[ai] >= 0
            else:
                ap = {T}.base.table[pc & {bmask}] >= 2
            # Newly allocated entries (weak counter, not yet useful) are
            # unreliable; optionally trust the alternate prediction.
            if (c == 0 or c == -1) and {T}._us[pi] == 0 and {T}.use_alt_on_na >= 8:
                tp = ap
            else:
                tp = pp
        else:
            tp = pp = ap = {T}.base.table[pc & {bmask}] >= 2
        I = ({"".join(f"i{t}, " for t in range(tables))})
        G = ({"".join(f"g{t}, " for t in range(tables))})
    """))
    return "\n".join(lines)


def tage_train(geometry: TageGeometry, T: str) -> str:
    """Source training the TAGE state ``T`` on ``taken`` with the names
    :func:`tage_lookup` bound, then shifting the outcome into history."""
    base_entries, _, _, lengths, period = geometry
    last = len(lengths) - 1
    return join(block(f"""
        us = {T}._us
        # Allocate a new entry on a misprediction, in a table with a longer
        # history than the provider, preferring entries with useful == 0.
        if tp != taken and prov < {last}:
            start = prov + 1
            # Random skip makes allocation spread across tables.
            if start < {last} and {T}._next_random() & 1:
                start += 1
            for k, g in zip(I[start:], G[start:]):
                if us[k] == 0:
                    {T}._tags[k] = g
                    {T}._ctrs[k] = 0 if taken else -1
                    break
            else:
                for k in I[start:]:
                    if us[k] > 0:
                        us[k] -= 1
        if pi >= 0:
            ctrs = {T}._ctrs
            c = ctrs[pi]
            u = us[pi]
            if pp != ap:
                # Track whether trusting the alternate over new entries
                # pays off.
                if u == 0 and (c == 0 or c == -1):
                    n = {T}.use_alt_on_na
                    if ap == taken:
                        if n < 15:
                            {T}.use_alt_on_na = n + 1
                    elif n > 0:
                        {T}.use_alt_on_na = n - 1
                if pp == taken:
                    if u < 3:
                        us[pi] = u + 1
                elif u > 0:
                    us[pi] = u - 1
            if taken:
                if c < {CTR_MAX}:
                    ctrs[pi] = c + 1
            elif c > {CTR_MIN}:
                ctrs[pi] = c - 1
        # The base predictor trains when it provided or served as the
        # alternate.
        if ai < 0:
            bt = {T}.base.table
            k = pc & {base_entries - 1}
            c = bt[k]
            if taken:
                if c < 3:
                    bt[k] = c + 1
            elif c > 0:
                bt[k] = c - 1
        # Periodic aging of usefulness bits.
        n = {T}._tick + 1
        if n >= {period}:
            n = 0
            us[:] = [u >> 1 for u in us]
        {T}._tick = n
        b = 1 if taken else 0
    """), tage_plan(geometry).shift(T, "h", "f", "b"))


def tage_source(geometry: TageGeometry) -> str:
    return join(
        "def predict(s, pc):",
        block(tage_lookup(geometry, "s"), 1),
        "    s._ctx = (tp, pp, ap, pi, prov, ai, I, G)",
        "    return tp",
        "",
        "def update(s, pc, taken):",
        "    ctx = s._ctx",
        "    if ctx is None:",
        "        predict(s, pc)",
        "        ctx = s._ctx",
        "    s._ctx = None",
        "    tp, pp, ap, pi, prov, ai, I, G = ctx",
        block(tage_train(geometry, "s"), 1),
        "",
        "def insert_history(s, pc, taken):",
        "    # Drop any stale prediction context: the tagged-table indices it",
        "    # caches were computed against the pre-insertion history.",
        "    s._ctx = None",
        "    b = 1 if taken else 0",
        block(tage_plan(geometry).shift("s", "h", "f", "b"), 1),
    )


class Tage(BranchPredictor):
    """The TAGE predictor proper (no loop predictor, no corrector)."""

    CTR_MIN, CTR_MAX = CTR_MIN, CTR_MAX

    def __init__(
        self,
        base_entries: int = 4096,
        table_entries: int = 512,
        tag_bits: int = 9,
        history_lengths: Sequence[int] = DEFAULT_HISTORY_LENGTHS,
        useful_reset_period: int = 256 * 1024,
    ):
        if table_entries & (table_entries - 1):
            raise ValueError("table_entries must be a power of two")
        if tag_bits < 2 or table_entries < 2 or min(history_lengths) <= 0:
            raise ValueError("tag bits, index bits and lengths must be positive")
        self.base = Bimodal(entries=base_entries)
        self.history_lengths = tuple(history_lengths)
        self.num_tables = len(self.history_lengths)
        self.table_entries = table_entries
        self.tag_bits = tag_bits
        self.useful_reset_period = useful_reset_period
        self._kernel = compile_kernel(tage_source, self.geometry)
        self.reset()

    @property
    def name(self) -> str:
        return f"tage-{self.num_tables}x{self.table_entries}"

    @property
    def geometry(self) -> TageGeometry:
        return (self.base.entries, self.table_entries, self.tag_bits,
                self.history_lengths, self.useful_reset_period)

    def _next_random(self) -> int:
        # 16-bit Fibonacci LFSR (taps 16, 14, 13, 11).
        lfsr = self._lfsr
        bit = ((lfsr >> 0) ^ (lfsr >> 2) ^ (lfsr >> 3) ^ (lfsr >> 5)) & 1
        self._lfsr = (lfsr >> 1) | (bit << 15)
        return self._lfsr

    # ------------------------------------------------------------------
    def predict(self, pc: int) -> bool:
        return self._kernel.predict(self, pc)

    def update(self, pc: int, taken: bool) -> None:
        self._kernel.update(self, pc, taken)

    def insert_history(self, pc: int, taken: bool) -> None:
        self._kernel.insert_history(self, pc, taken)

    # ------------------------------------------------------------------
    def storage_bits(self) -> int:
        per_entry = 3 + 2 + self.tag_bits
        tagged = self.num_tables * self.table_entries * per_entry
        history = max(self.history_lengths) + 2
        return self.base.storage_bits() + tagged + history + 4 + 16

    def reset(self) -> None:
        self.base.reset()
        size = self.num_tables * self.table_entries
        self._ctrs = [0] * size
        self._tags = [0] * size
        self._us = [0] * size    # 2-bit usefulness
        self._history = 0
        self._folds = tage_plan(self.geometry).cold()
        self.use_alt_on_na = 8  # 4-bit counter in [0, 15]
        self._lfsr = 0xACE1     # deterministic allocation "randomness"
        self._tick = 0
        # Prediction context carried from predict() to update().
        self._ctx = None
