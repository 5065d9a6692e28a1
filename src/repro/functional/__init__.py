"""Functional (committed-path) simulation of the repro ISA."""

from .executor import (
    ExecutionError,
    ExecutionLimitExceeded,
    Executor,
    ProbDecision,
    nan_max,
    nan_min,
)
from .rng import Drand48, RecordingRng
from .state import MachineState, MemoryFault
from .trace import EventBatch, ProbMode, TraceEvent, per_event

__all__ = [
    "ExecutionError",
    "ExecutionLimitExceeded",
    "Executor",
    "ProbDecision",
    "nan_max",
    "nan_min",
    "Drand48",
    "RecordingRng",
    "MachineState",
    "MemoryFault",
    "EventBatch",
    "ProbMode",
    "TraceEvent",
    "per_event",
]
