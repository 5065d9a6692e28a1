"""Folded (compressed) global history registers for TAGE index/tag hashes.

TAGE hashes very long global histories (up to a couple hundred bits) into
table indices of ~9 bits.  Recomputing the XOR-fold from scratch at every
branch would dominate simulation time, so we maintain the fold
incrementally, exactly as in Michaud/Seznec's championship predictor code:
one shifted-in bit and one shifted-out bit per branch.

The TAGE-family kernels do not instantiate this class: their
:class:`~repro.branch.codegen.FoldPlan` emits the same update inline,
once per distinct fold.  :class:`FoldedHistory` stays the reference
those kernels are tested against.
"""

from __future__ import annotations


class FoldedHistory:
    """An incrementally maintained XOR-fold of the last ``original_length``
    history bits down to ``compressed_length`` bits."""

    __slots__ = ("comp", "original_length", "compressed_length", "outpoint", "mask")

    def __init__(self, original_length: int, compressed_length: int):
        if original_length <= 0 or compressed_length <= 0:
            raise ValueError("lengths must be positive")
        self.comp = 0
        self.original_length = original_length
        self.compressed_length = compressed_length
        self.outpoint = original_length % compressed_length
        self.mask = (1 << compressed_length) - 1

    def update(self, history_after_shift: int, new_bit: int) -> None:
        """Advance the fold after the global history shifted in ``new_bit``.

        ``history_after_shift`` is the global history integer *after*
        ``history = (history << 1) | new_bit``; the evicted bit of our
        window is then at position ``original_length``.
        """
        self.comp = (self.comp << 1) | new_bit
        evicted = (history_after_shift >> self.original_length) & 1
        self.comp ^= evicted << self.outpoint
        self.comp ^= self.comp >> self.compressed_length
        self.comp &= self.mask

    def recompute(self, history: int) -> int:
        """Reference (slow) fold of ``history``'s low ``original_length``
        bits; used by tests to validate the incremental update."""
        window = history & ((1 << self.original_length) - 1)
        folded = 0
        while window:
            folded ^= window & self.mask
            window >>= self.compressed_length
        return folded

    def reset(self) -> None:
        self.comp = 0
