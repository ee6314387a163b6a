"""Sorted-set operations: the computational kernel of graph mining.

Pattern-aware graph mining spends nearly all of its compute in
intersections and subtractions of sorted vertex sets (§1 of the paper),
which is why accelerators build dedicated set-operation functional units.
This module provides:

* numpy implementations used by the miner and simulator,
* pure-Python references used by the property-based tests,
* cost accounting matching the merge-based FU model: a two-input sorted
  merge costs ``len(a) + len(b)`` element comparisons, which the FU pool
  divides into fixed-size segments (FINGERS-style fine-grained
  parallelism, §5.1.1 "vertex sets are divided into fine-grained segments
  by dividers; only paired segments become inputs of set operations").

The binary kernels are ``searchsorted``-based rather than
``np.intersect1d``/``np.setdiff1d``: both operands are sorted unique by
contract, so membership of the smaller operand in the larger is a single
binary-search sweep — no concatenate-and-sort round trip.  The batched
variants (:func:`intersect_multi`, :func:`intersect_bounded`,
:func:`subtract_bounded`) chain that sweep without materializing
intermediate copies beyond the shrinking survivor array.

Backend dispatch
----------------
:func:`intersect` and :func:`subtract` are thin dispatchers: trivial
cases (an empty operand) resolve here so every backend shares their
exact semantics, and the general case routes through the module globals
``_intersect_impl`` / ``_subtract_impl``.  The defaults are the numpy
implementations below; ``repro.sim.backend`` rebinds them when a
compiled backend (the C extension) is selected.  All
implementations produce identical arrays — sorted unique ``int64`` —
so every accounted metric downstream is backend-independent.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

EMPTY = np.empty(0, dtype=np.int64)
EMPTY.setflags(write=False)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr`` (zero-copy)."""
    view = arr.view()
    view.flags.writeable = False
    return view


def as_sorted_array(values: Sequence[int]) -> np.ndarray:
    """Sorted, deduplicated ``int64`` array from arbitrary int values.

    Returns a **read-only** array.  ``ndarray`` inputs fast-path: an
    already sorted-unique ``int64`` array is returned as a zero-copy
    read-only view instead of round-tripping through ``list``.
    """
    if isinstance(values, np.ndarray):
        arr = np.ascontiguousarray(values, dtype=np.int64).reshape(-1)
        if arr.size == 0:
            return EMPTY
        if arr.size == 1 or bool(np.all(np.diff(arr) > 0)):
            return _read_only(arr)
        return _read_only(np.unique(arr))
    items = list(values)
    if not items:
        return EMPTY
    return _read_only(np.unique(np.asarray(items, dtype=np.int64)))


def _intersect_numpy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Binary-search intersection; both operands non-empty sorted unique."""
    if len(a) > len(b):
        a, b = b, a
    pos = b.searchsorted(a)
    # Clamp the one-past-the-end positions (elements above b's maximum)
    # onto the last slot: those elements are strictly greater than b[-1],
    # so the equality probe below rejects them — same result as zeroing,
    # in a single vector pass instead of mask-build + mask-assign.
    np.minimum(pos, len(b) - 1, out=pos)
    return a[b[pos] == a]


def _subtract_numpy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Binary-search subtraction; both operands non-empty sorted unique."""
    pos = b.searchsorted(a)
    np.minimum(pos, len(b) - 1, out=pos)
    return a[b[pos] != a]


def _intersect_multi_numpy(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Chained binary-search intersection (general case of
    :func:`intersect_multi`): at least two operands, presorted
    smallest-first, first operand non-empty."""
    current = arrays[0]
    for arr in arrays[1:]:
        current = _intersect_numpy(current, arr)
        if len(current) == 0:
            return EMPTY
    return current


#: Active general-case implementations.  ``repro.sim.backend`` rebinds
#: these when a compiled backend is selected; the numpy kernels are the
#: pure reference backend.
_intersect_impl = _intersect_numpy
_subtract_impl = _subtract_numpy
_intersect_multi_impl = _intersect_multi_numpy


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique arrays (sorted unique result)."""
    if len(a) == 0 or len(b) == 0:
        return EMPTY
    return _intersect_impl(a, b)


def subtract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elements of ``a`` not present in ``b`` (both sorted unique)."""
    if len(a) == 0:
        return EMPTY
    if len(b) == 0:
        return a
    return _subtract_impl(a, b)


def intersect_multi(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Intersection of many sorted unique arrays without extra copies.

    Processes operands smallest-first so every binary-search sweep runs
    over the shortest possible survivor array; intersection is
    associative and commutative, so the result is identical to any
    pairwise chaining.  The general case is a single backend kernel
    (``_intersect_multi_impl``), so compiled backends pay one call's
    marshalling for the whole chain instead of one per pair.
    """
    if not arrays:
        raise ValueError("intersect_multi needs at least one array")
    ordered = sorted(arrays, key=len)
    if len(ordered) == 1:
        return ordered[0]
    if len(ordered[0]) == 0:
        return EMPTY
    return _intersect_multi_impl(ordered)


def intersect_bounded(a: np.ndarray, b: np.ndarray, bound: int | None) -> np.ndarray:
    """``truncate_below(intersect(a, b), bound)`` without the full merge.

    The bound is applied to ``a`` *first* (a zero-copy slice), so elements
    at or past the symmetry-breaking cut-off never enter the search sweep.
    """
    return intersect(truncate_below(a, bound), b)


def subtract_bounded(a: np.ndarray, b: np.ndarray, bound: int | None) -> np.ndarray:
    """``truncate_below(subtract(a, b), bound)`` without the full merge."""
    return subtract(truncate_below(a, bound), b)


def merge_cost(size_a: int, size_b: int) -> int:
    """Element comparisons of a two-pointer sorted merge."""
    return int(size_a) + int(size_b)


def truncate_below(a: np.ndarray, bound: int | None) -> np.ndarray:
    """Prefix of sorted ``a`` strictly below ``bound`` (all of ``a`` if None).

    This is the symmetry-breaking scan cut-off: candidates are stored
    ascending, so every element at or past the bound is pruned together
    (the ``break`` in Algorithm 1 of the paper).
    """
    if bound is None or len(a) == 0:
        return a
    pos = int(np.searchsorted(a, bound, side="left"))
    return a[:pos]


# ----------------------------------------------------------------------
# Pure-Python references (oracles for the property-based tests)
# ----------------------------------------------------------------------

def intersect_reference(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Two-pointer merge intersection; oracle for :func:`intersect`."""
    out: List[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            out.append(int(a[i]))
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return out


def subtract_reference(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Two-pointer merge subtraction; oracle for :func:`subtract`."""
    out: List[int] = []
    i = j = 0
    while i < len(a):
        while j < len(b) and b[j] < a[i]:
            j += 1
        if j >= len(b) or b[j] != a[i]:
            out.append(int(a[i]))
        i += 1
    return out


def intersect_multi_reference(arrays: Sequence[Sequence[int]]) -> List[int]:
    """Left-to-right pairwise chaining; oracle for :func:`intersect_multi`."""
    if not arrays:
        raise ValueError("intersect_multi needs at least one array")
    current = [int(v) for v in arrays[0]]
    for arr in arrays[1:]:
        current = intersect_reference(current, arr)
    return current


def segment_count(total_elements: int, segment_size: int) -> int:
    """Number of FU segment jobs for ``total_elements`` of merge input."""
    if total_elements <= 0:
        return 0
    if segment_size <= 0:
        raise ValueError("segment_size must be positive")
    return -(-int(total_elements) // int(segment_size))
