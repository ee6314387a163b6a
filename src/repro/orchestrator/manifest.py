"""Run manifests: per-cell outcomes, failure report, progress summary.

The manifest is the orchestrator's audit trail for one ``experiment``
invocation: every deduplicated cell appears exactly once with its
status (``cached`` / ``computed`` / ``failed``), attempt count and wall
seconds, and every requested experiment appears with its render status.
A failed cell does not abort the sweep — it is recorded here, the
experiments that need it are marked failed, and everything else
completes (the ISSUE's "structured failure report" semantics).

The *serial estimate* sums each cell's measured execution time (cached
cells contribute the seconds recorded when they were first computed),
so ``speedup_estimate`` compares the actual wall time against what a
one-cell-at-a-time cold run would have cost.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Union

from ..ioutil import atomic_write_json


@dataclass
class CellOutcome:
    """What happened to one deduplicated cell."""

    key: str
    label: str
    status: str                # "cached" | "computed" | "failed"
    seconds: float = 0.0
    attempts: int = 0
    error: Optional[Dict[str, str]] = None
    #: Execution context of the last attempt: worker ``pid``, how the
    #: dataset was materialized (``dataset_source`` is one of ``memo`` /
    #: ``binary-cache`` / ``rebuilt``) and the graph resolve time in
    #: ``graph_seconds``.  None for cached cells.
    worker: Optional[Dict[str, object]] = None


@dataclass
class ExperimentOutcome:
    """Render status of one requested experiment."""

    name: str
    status: str                # "ok" | "failed"
    error: Optional[str] = None


@dataclass
class RunManifest:
    """Aggregate record of one orchestrated invocation."""

    jobs: int = 1
    cells: List[CellOutcome] = field(default_factory=list)
    experiments: List[ExperimentOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: One record per distinct ``(dataset, scale)`` staged before the
    #: waves ran: how the parent materialized it and how long that took.
    staging: List[Dict[str, object]] = field(default_factory=list)
    #: Distributed runs only: one record per worker that registered —
    #: name, pid, lifecycle outcome (``drained`` / ``dead``), cells
    #: completed, and the death cause for workers that did not survive.
    #: Empty for serial/pool runs, so their manifests are unchanged.
    workers: List[Dict[str, object]] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def cached(self) -> int:
        return sum(1 for c in self.cells if c.status == "cached")

    @property
    def computed(self) -> int:
        return sum(1 for c in self.cells if c.status == "computed")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cells if c.status == "failed")

    @property
    def done(self) -> int:
        return self.cached + self.computed

    @property
    def serial_estimate_seconds(self) -> float:
        return sum(c.seconds for c in self.cells if c.status != "failed")

    def speedup_estimate(self) -> float:
        """Serial-cost / wall-time ratio (cache hits count as savings)."""
        if self.wall_seconds <= 0:
            return 1.0
        return self.serial_estimate_seconds / self.wall_seconds

    def failures(self) -> List[CellOutcome]:
        """The structured failure report: every failed cell."""
        return [c for c in self.cells if c.status == "failed"]

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable (and CI-greppable) summary block."""
        lines = [
            f"cells: {self.total} total — {self.cached} cached, "
            f"{self.computed} computed, {self.failed} failed (jobs={self.jobs})",
            f"wall time {self.wall_seconds:.2f}s, serial estimate "
            f"{self.serial_estimate_seconds:.2f}s, speedup estimate "
            f"{self.speedup_estimate():.1f}x",
        ]
        if self.staging:
            sources = ", ".join(
                f"{s.get('dataset')}@{s.get('scale')}:{s.get('source', '?')}"
                for s in self.staging
            )
            lines.append(f"staged {len(self.staging)} graph(s) — {sources}")
        if self.workers:
            survived = sum(1 for w in self.workers if w.get("state") != "dead")
            roster = ", ".join(
                f"{w.get('name', '?')}:{w.get('completed', 0)} cells"
                + (f" [{w.get('backend')}]" if w.get("backend") else "")
                + (
                    f" [fallback: {w.get('backend_fallback')}]"
                    if w.get("backend_fallback")
                    else ""
                )
                + (f" ({w.get('cause')})" if w.get("state") == "dead" else "")
                for w in self.workers
            )
            lines.append(
                f"workers: {len(self.workers)} registered, {survived} "
                f"survived — {roster}"
            )
        for cell in self.failures():
            error = cell.error or {}
            where = ""
            if cell.worker:
                where = (
                    f" [pid {cell.worker.get('pid', '?')}, dataset via "
                    f"{cell.worker.get('dataset_source', '?')}]"
                )
            if cell.error and cell.error.get("domains"):
                where += f" [failure domains: {', '.join(cell.error['domains'])}]"
            lines.append(
                f"FAILED {cell.label} after {cell.attempts} attempt(s){where}: "
                f"{error.get('type', 'Error')}: {error.get('message', '')}"
            )
        for exp in self.experiments:
            if exp.status != "ok":
                lines.append(f"FAILED experiment {exp.name}: {exp.error}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "serial_estimate_seconds": self.serial_estimate_seconds,
            "totals": {
                "total": self.total,
                "cached": self.cached,
                "computed": self.computed,
                "failed": self.failed,
            },
            "staging": [dict(s) for s in self.staging],
            "workers": [dict(w) for w in self.workers],
            "cells": [asdict(c) for c in self.cells],
            "experiments": [asdict(e) for e in self.experiments],
        }

    def save(self, path: Union[str, os.PathLike]) -> None:
        """Write the manifest as JSON, atomically (a concurrent reader —
        e.g. ``repro jobs`` polling ``last-run.json`` — never sees a
        partial file; parent directories are created)."""
        atomic_write_json(path, self.to_dict(), indent=2)
