"""Gather-Apply-Scatter engines with behavior instrumentation.

This is the library's GraphLab-v2.2 stand-in (paper Section 3.1/3.3):
vertex-centric computation where only *active* vertices run, activation
travels as signals (messages) emitted during Scatter, and one complete
Gather → Apply → Scatter sweep over the active set is an *iteration*.

Four engines run the same :class:`~repro.engine.program.VertexProgram`
through one run loop (:mod:`repro.engine.loop`: context, trace, health
monitor, deadline, telemetry, stop conditions) and one options
base; each supplies only its step:

- :class:`SynchronousEngine` — an iteration over the whole frontier,
  phase by phase;
- :class:`AsynchronousEngine` — a round of up to ``|V|`` scheduler pops;
- :class:`EdgeCentricEngine` — a stream pass over every arc;
- :class:`GraphCentricEngine` — a superstep of partition-local sweeps.

How a step's gather, scatter and stream are evaluated is one layer,
:mod:`repro.engine.kernels` — the only caller of ``gather_edge`` /
``scatter_edges``. It takes the callback path everywhere except the
one step where a fused dense CSR kernel pays: a synchronous iteration
of a program that declares a ``gather_shape`` / ``scatter_shape``
whose frontier is dense enough (``engine.PULL_ACTIVE_FRACTION``); it is
not an option. The oracles — a vertex-at-a-time engine and a kernels
wrapper that cross-checks every fused evaluation — live in
``tests/engine_oracle.py``.
"""

from repro.engine.async_engine import AsynchronousEngine, AsyncEngineOptions
from repro.engine.context import Context
from repro.engine.edge_centric import EdgeCentricEngine, EdgeCentricOptions
from repro.engine.engine import EngineOptions, SynchronousEngine
from repro.engine.graph_centric import GraphCentricEngine, GraphCentricOptions
from repro.engine.health import (
    FAULT_KINDS,
    HEALTH_POLICIES,
    FaultPlan,
    HealthMonitor,
    HealthVerdict,
    build_monitor,
    mark_degraded,
    validate_health_policy,
)
from repro.engine.instrumentation import Counters
from repro.engine.program import Direction, VertexProgram

__all__ = [
    "AsyncEngineOptions",
    "AsynchronousEngine",
    "EdgeCentricEngine",
    "EdgeCentricOptions",
    "FAULT_KINDS",
    "FaultPlan",
    "GraphCentricEngine",
    "GraphCentricOptions",
    "HEALTH_POLICIES",
    "HealthMonitor",
    "HealthVerdict",
    "Context",
    "Counters",
    "Direction",
    "EngineOptions",
    "SynchronousEngine",
    "VertexProgram",
    "build_monitor",
    "mark_degraded",
    "validate_health_policy",
]
