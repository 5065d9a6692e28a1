"""Tier 0: the reference pre-decoded interpreter, behind the engine API.

:class:`repro.functional.Executor` wrapped so engine selection is
uniform.  It is the tier every other one is held bit-identical to; the
lockstep differ (:mod:`repro.diff`) and the stream pins use it as the
reference.
"""

from __future__ import annotations

from ..functional import Executor
from .base import Engine, register_engine


@register_engine("interp")
class InterpEngine(Engine):
    """The interpreter as an engine (the reference tier)."""

    def executor(self, program, *, seed=0, pbs=None, record_consumed=False):
        self.last_cache_hit = False
        return Executor(
            program, seed=seed, pbs=pbs, record_consumed=record_consumed
        )
