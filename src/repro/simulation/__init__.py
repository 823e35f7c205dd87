"""Synchronous round-based radio network simulator.

The simulator implements the execution model of Section 2 verbatim: in each
round every process first receives environment inputs, then decides whether
to transmit or listen, then receptions are resolved against the round's
communication topology (``G`` plus the link scheduler's chosen unreliable
edges) using the standard radio collision rule -- a listening node receives a
frame iff exactly one of its topology neighbors transmits; there is no
collision detection -- and finally process outputs are handed to the
environment and recorded in the execution trace.
"""

from repro.simulation.process import Process, ProcessContext
from repro.simulation.engine import Simulator
from repro.simulation.environment import (
    Environment,
    NullEnvironment,
    SaturatingEnvironment,
    ScriptedEnvironment,
    SingleShotEnvironment,
    BurstyEnvironment,
)
from repro.simulation.trace import ExecutionTrace, TraceMode
from repro.simulation.metrics import (
    ack_delays,
    delivery_report,
    progress_report,
    unique_seed_owner_counts,
)

__all__ = [
    "Process",
    "ProcessContext",
    "Simulator",
    "Environment",
    "NullEnvironment",
    "SingleShotEnvironment",
    "SaturatingEnvironment",
    "ScriptedEnvironment",
    "BurstyEnvironment",
    "ExecutionTrace",
    "TraceMode",
    "ack_delays",
    "delivery_report",
    "progress_report",
    "unique_seed_owner_counts",
]
