"""Helpers shared by the workloads: statistics, output checks, spans.

Nothing here imports ``repro``, so the self-tests of these helpers run
without the simulator.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles tried for the latency tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def rank(p: float, n: int) -> int:
    """Nearest-rank index (1-based) of percentile ``p`` among ``n`` samples."""
    return max(1, min(n, math.ceil(p * n / 100.0 - 1e-9)))


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it.

    ``None`` when ``n`` is too small for any ladder entry (fewer than
    ``4 * TAIL_MIN_BEYOND`` samples); callers then report the maximum
    and say so.
    """
    for p in TAIL_LADDER:
        if n - rank(p, n) >= TAIL_MIN_BEYOND:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def tail(values: Sequence[float], per_pass: int) -> Tuple[float, str]:
    """Tail latency and its label.

    The percentile is chosen from ``per_pass`` (the operations in one
    pass, which the seed fixes), not from the pooled count, so the
    percentile reported never changes with how many passes fit in the
    measured time.
    """
    p = tail_percentile(per_pass)
    if p is None:
        return max(values), f"max (n={per_pass} per pass, too few for a percentile)"
    return percentile(values, p), f"p{p:g}"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def geomean(values: Iterable[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def children_cpu_s() -> float:
    """User + system CPU seconds of every child process reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------

def digest(metrics: dict) -> str:
    """SHA-256 over the full serialized RunMetrics (floats exact)."""
    blob = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_output(
    metrics: dict, expected_count: int, recorded: Optional[str]
) -> List[str]:
    """Problems with one cell's output (empty list = correct).

    The match count must equal the reference miner's; when a digest was
    recorded for this cell, the whole RunMetrics must hash to it.
    """
    problems = []
    if metrics.get("matches") != expected_count:
        problems.append(
            f"matches {metrics.get('matches')} != reference {expected_count}"
        )
    if recorded is not None and digest(metrics) != recorded:
        problems.append("RunMetrics digest differs from the recorded one")
    return problems


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``enabled=False`` records nothing.

    Times are ``time.perf_counter()`` readings, which on Linux share one
    monotonic clock across processes, so spans that pool workers report
    line up with the parent's.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def begin(self, name: str, **attrs) -> Optional[int]:
        if not self.enabled:
            return None
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        return span.id

    def end(self, span_id: Optional[int], **attrs) -> None:
        if span_id is None:
            return
        span = self.spans[span_id]
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        if self._stack.pop() != span_id:
            raise RuntimeError("spans must close innermost first")

    def span(self, name: str, **attrs) -> "_SpanContext":
        return _SpanContext(self, name, attrs)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], **attrs) -> Optional[int]:
        """Record a finished span measured elsewhere (e.g. in a worker)."""
        if not self.enabled:
            return None
        span = Span(len(self.spans), parent, name, start, end, attrs)
        self.spans.append(span)
        return span.id

    def to_json(self) -> List[dict]:
        return [
            {"id": s.id, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end, "attrs": s.attrs}
            for s in self.spans
        ]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self.tracer, self.name, self.attrs = tracer, name, attrs
        self.id: Optional[int] = None

    def __enter__(self) -> "_SpanContext":
        self.id = self.tracer.begin(self.name, **self.attrs)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.id)


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover.

    Children may overlap each other (two pool workers under one
    ``orchestrator.run_cells`` span), so the covered part is the union
    of their intervals, not their sum.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + own[s.id]
    return out
