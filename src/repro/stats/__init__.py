"""Statistics substrate: randomness battery and confidence intervals.

The battery (:mod:`~repro.stats.randomness`) needs numpy and scipy; its
names resolve lazily (PEP 562), so importing this package — as
:mod:`repro.sim` does for the confidence intervals — loads neither.
"""

from .confidence import Interval, count_interval, mean_interval, proportion_interval

_RANDOMNESS_EXPORTS = (
    "BATTERY",
    "FAIL",
    "NUM_TESTS",
    "PASS",
    "WEAK",
    "TestResult",
    "classify",
    "run_battery",
    "summarize",
)


def __getattr__(name):
    if name in _RANDOMNESS_EXPORTS:
        from . import randomness

        return getattr(randomness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Interval",
    "count_interval",
    "mean_interval",
    "proportion_interval",
    *_RANDOMNESS_EXPORTS,
]
