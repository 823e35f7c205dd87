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

from repro._lazy import lazy_exports

#: Public name -> the module it is re-exported from (imported on first use).
_EXPORTS = {
    "Process": "repro.simulation.process",
    "ProcessContext": "repro.simulation.process",
    "Simulator": "repro.simulation.engine",
    "Environment": "repro.simulation.environment",
    "NullEnvironment": "repro.simulation.environment",
    "SingleShotEnvironment": "repro.simulation.environment",
    "SaturatingEnvironment": "repro.simulation.environment",
    "ScriptedEnvironment": "repro.simulation.environment",
    "BurstyEnvironment": "repro.simulation.environment",
    "ExecutionTrace": "repro.simulation.trace",
    "TraceMode": "repro.simulation.trace",
    "ack_delays": "repro.simulation.metrics",
    "delivery_report": "repro.simulation.metrics",
    "progress_report": "repro.simulation.metrics",
    "unique_seed_owner_counts": "repro.simulation.metrics",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
