"""What one pass of a workload hands back to run.py."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Op:
    """One timed operation: a simulated cell or a service request."""

    cell: str
    latency_s: float
    #: How the result was produced: ``computed``, ``cache`` or ``coalesced``.
    source: str = "computed"
    #: Tasks simulated for this op (0 unless it computed the cell).
    tasks: int = 0
    metrics: Optional[dict] = None
    problems: List[str] = field(default_factory=list)
    #: Server-side state timings of a request (seconds since accepted).
    timing: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class PassResult:
    wall_s: float
    ops: List[Op]
    #: Host CPU seconds the pass spent simulating: inside
    #: ``Accelerator.run()`` in-process, or of the pool workers.
    cpu_s: float
    #: Per-cell layer records (``layers.run_instrumented``), traced passes.
    records: List[dict] = field(default_factory=list)
    #: Orchestrator manifest summary (grid_sweep) or service stats (serve_mixed).
    orchestrator: Dict[str, float] = field(default_factory=dict)
    service: Dict[str, float] = field(default_factory=dict)
