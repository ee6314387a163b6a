"""Pure python/numpy kernel backend — the reference implementation.

These are the exact kernels the simulator ran before the backend layer
existed: the searchsorted set operations from ``mining.setops`` and the
tiered span-residency / EMA folds lifted verbatim out of
``sim/memory.py``.  The C backend is differential-tested against this
one (``tests/test_backend_parity.py``), the same way ``Cache`` is
tested against ``ReferenceCache``.

Kernel contracts
----------------
``intersect(a, b)`` / ``subtract(a, b)``
    General case only — both operands non-empty sorted unique ``int64``
    arrays; the trivial cases live in the ``setops`` dispatchers so all
    backends share them.  Results are sorted unique ``int64``.

``intersect_multi(arrays)``
    Chained intersection of two or more operands, presorted
    smallest-first by the dispatcher, first operand non-empty.  One
    kernel call per chain lets compiled backends amortize their call
    overhead across all operands.

``span_resident_stamp(cache, first_line, last_line)``
    If every line of the span is resident in ``cache``, stamp the hit
    ways in address order with consecutive ticks (advancing
    ``cache._tick``) and return True; otherwise change nothing and
    return False.  Hit/miss *statistics* are the caller's job — the
    writeback path refreshes LRU without counting hits.

``ema_fold(window, latency, n)``
    Fold ``n`` identical latencies into a ``PELatencyWindow``.
"""

from __future__ import annotations

import numpy as np

from ...mining.setops import (
    _intersect_multi_numpy,
    _intersect_numpy,
    _subtract_numpy,
)

intersect = _intersect_numpy
subtract = _subtract_numpy
intersect_multi = _intersect_multi_numpy


def span_resident_stamp(cache, first_line: int, last_line: int) -> bool:
    """Tiered all-resident probe + batch LRU stamp (see module docs).

    The tiers mirror the span sizes the simulator produces: a scalar
    dict walk for narrow spans (numpy setup costs more than a few dict
    probes), a listcomp probe with batch stamping for mid-size spans,
    and the vectorized tag-array probe for very wide ones.  All three
    leave identical state: hit ways stamped in address order with
    consecutive ticks, nothing touched on a miss.
    """
    n = last_line - first_line + 1
    tick = cache._tick
    if n >= 64:
        sets, hit_ways, mask = cache._span_probe(first_line, last_line)
        if not mask.all():
            return False
        cache._stamps[sets * cache.assoc + hit_ways.argmax(axis=1)] = np.arange(
            tick, tick + n, dtype=np.int64
        )
    elif n >= 8:
        where_get = cache._where.get
        slots = [where_get(addr) for addr in range(first_line, last_line + 1)]
        if None in slots:
            return False
        cache._stamps[slots] = np.arange(tick, tick + n, dtype=np.int64)
    else:
        where_get = cache._where.get
        slots = []
        append = slots.append
        for addr in range(first_line, last_line + 1):
            slot = where_get(addr)
            if slot is None:
                return False
            append(slot)
        stamps = cache._stamps
        for slot in slots:
            stamps[slot] = tick
            tick += 1
        cache._tick = tick
        return True
    cache._tick = tick + n
    return True


def ema_fold(window, latency: float, n: int) -> None:
    """Per-access EMA folds of ``n`` identical latencies (exact loop)."""
    alpha = window.alpha
    value = window.value
    total = window.total_latency
    for _ in range(n):
        value += alpha * (latency - value)
        total += latency
    window.value = value
    window.total_latency = total
    window.samples += n
