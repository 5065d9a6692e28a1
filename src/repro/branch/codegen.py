"""Per-geometry straight-line kernels for the TAGE-family predictors.

TAGE, the statistical corrector and the loop predictor spend nearly all
of their time in a handful of integer operations per branch.  Written
as ordinary methods, most of that time goes to the interpreter: loops
over tables, per-fold method calls, attribute loads for constants.  So
each of these predictors describes its per-branch work as Python source
for *one geometry* (table sizes, history lengths and widths are baked
in as constants, every loop over tables is unrolled), and this module
compiles that source once per geometry and caches the result.

The generated functions take the predictor's state object as their
first argument and keep nothing else: they never close over an
instance, so ``copy.deepcopy`` and ``pickle`` of a predictor stay
correct.  A :class:`Kernel` pickles as its (builder, geometry) key and
is rebuilt, or fetched from the cache, on load.  Nothing is generated at
import time; the first predictor of a geometry pays for its kernel.
"""

from __future__ import annotations

import textwrap
from typing import Callable, Dict, Hashable, Iterable, Tuple

Builder = Callable[[Hashable], str]


class Kernel:
    """The compiled functions of one (builder, geometry) pair.

    Every public function defined by the generated source becomes an
    attribute; :attr:`source` keeps the text for inspection.
    """

    def __init__(self, builder: Builder, geometry: Hashable, source: str):
        self.builder = builder
        self.geometry = geometry
        self.source = source
        namespace: Dict[str, object] = {}
        name = f"<{builder.__module__}.{builder.__name__} {geometry}>"
        exec(compile(source, name, "exec"), namespace)
        for key, value in namespace.items():
            if callable(value) and not key.startswith("_"):
                setattr(self, key, value)

    def __reduce__(self):
        return compile_kernel, (self.builder, self.geometry)


_KERNELS: Dict[Tuple[Builder, Hashable], Kernel] = {}


def compile_kernel(builder: Builder, geometry: Hashable) -> Kernel:
    """The cached kernel ``builder`` generates for ``geometry``."""
    key = (builder, geometry)
    kernel = _KERNELS.get(key)
    if kernel is None:
        kernel = _KERNELS[key] = Kernel(builder, geometry, builder(geometry))
    return kernel


def block(text: str, depth: int = 0) -> str:
    """Dedent a source template and indent it by ``depth`` levels."""
    return textwrap.indent(textwrap.dedent(text).strip("\n"), "    " * depth)


def join(*blocks: str) -> str:
    return "\n".join(b for b in blocks if b) + "\n"


class FoldPlan:
    """The folds of one global-history register that a kernel keeps.

    TAGE-style hashes read XOR-folds of the last ``length`` history bits
    down to ``width`` bits (:class:`~repro.branch.folded.FoldedHistory`).
    The plan keeps each distinct (length, width) pair once.  A fold whose
    length is at most its width is the low ``length`` bits of the history
    itself, so it is read as a mask and keeps no state.  Every other fold
    is kept incrementally in the register owner's ``_folds`` tuple, in
    :attr:`kept` order, exactly as ``FoldedHistory.update`` would.
    """

    def __init__(self, pairs: Iterable[Tuple[int, int]], history_bits: int):
        self.pairs = tuple(dict.fromkeys(pairs))
        self.kept = tuple((n, w) for n, w in self.pairs if n > w)
        self.history_mask = (1 << history_bits) - 1

    def expr(self, length: int, width: int, h: str, f: str) -> str:
        """Source reading the fold, given history ``h`` and fold prefix ``f``."""
        if length <= width:
            return f"({h} & {(1 << length) - 1})"
        return f"{f}{self.kept.index((length, width))}"

    def load(self, state: str, h: str, f: str) -> str:
        """Source binding the history and kept folds of ``state``."""
        lines = [f"{h} = {state}._history"]
        if self.kept:
            names = "".join(f"{f}{k}, " for k in range(len(self.kept)))
            lines.append(f"{names}= {state}._folds")
        return "\n".join(lines)

    def shift(self, state: str, h: str, f: str, bit: str) -> str:
        """Source shifting ``bit`` into ``state``'s history and folds."""
        lines = [
            f"{h} = (({state}._history << 1) | {bit}) & {self.history_mask}",
            f"{state}._history = {h}",
        ]
        if self.kept:
            names = "".join(f"{f}{k}, " for k in range(len(self.kept)))
            lines.append(f"{names}= {state}._folds")
            for k, (length, width) in enumerate(self.kept):
                # Shift in the new bit, cancel the bit leaving the
                # window, then wrap the overflow bit around.
                out = length % width
                lines.append(
                    f"{f}{k} = (({f}{k} << 1) | {bit}) "
                    f"^ (({h} >> {length - out}) & {1 << out})"
                )
                lines.append(
                    f"{f}{k} = ({f}{k} ^ ({f}{k} >> {width})) & {(1 << width) - 1}"
                )
            lines.append(f"{state}._folds = ({names})")
        return "\n".join(lines)

    def cold(self) -> Tuple[int, ...]:
        """The kept folds of an all-zero history."""
        return (0,) * len(self.kept)

    def values(self, history: int, folds: Tuple[int, ...]) -> Dict[Tuple[int, int], int]:
        """Every planned fold's current value (a test and debugging aid)."""
        return {
            (n, w): folds[self.kept.index((n, w))] if n > w
            else history & ((1 << n) - 1)
            for n, w in self.pairs
        }

