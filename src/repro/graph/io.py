"""Edge-list text I/O in the SNAP style used by the paper's datasets.

Format: one ``u v`` pair per line, ``#``-prefixed comment lines ignored,
arbitrary whitespace separation.  Files written by :func:`save_edge_list`
round-trip exactly through :func:`load_edge_list`.

Loading is vectorized: the whole file is tokenized with numpy (comment
lines masked out, integers parsed by a single ``astype``), and the
original line-by-line parser is kept as :func:`load_edge_list_reference`
— both the fallback for files the fast path cannot prove well-formed
(so malformed input always reports the same ``GraphError`` line number)
and the oracle the property tests compare against.
"""

from __future__ import annotations

import itertools
import os
from typing import List, Optional, Tuple

import numpy as np

from ..errors import GraphError
from .builders import from_edge_array, from_edges
from .csr import CSRGraph

#: ASCII whitespace, matching ``bytes.split()`` token boundaries.
_WS_BYTES = (0x20, 0x09, 0x0D, 0x0B, 0x0C)


def _parse_edge_bytes(data: bytes) -> Optional[np.ndarray]:
    """Vectorized parse of a well-formed edge list; None means fall back.

    Well-formed here is exactly two tokens on every non-comment,
    non-blank line with every token an integer literal.  Anything else —
    short lines (``GraphError`` + line number), long lines (extra tokens
    legally ignored), non-integers — is handed to the reference parser
    so behaviour and error reporting stay identical.
    """
    if not data:
        return np.empty((0, 2), dtype=np.int64)
    raw = np.frombuffer(data, dtype=np.uint8)
    is_nl = raw == 0x0A
    is_ws = is_nl.copy()
    for ws in _WS_BYTES:
        is_ws |= raw == ws
    token_start = ~is_ws
    token_start[1:] &= is_ws[:-1]
    starts = np.nonzero(token_start)[0]
    if starts.size == 0:  # blank/whitespace-only file: no edges
        return np.empty((0, 2), dtype=np.int64)
    # Line index per byte, then per token; token counts per line.
    line_of = np.zeros(len(raw), dtype=np.int64)
    np.cumsum(is_nl[:-1], out=line_of[1:])
    token_line = line_of[starts]
    num_lines = int(line_of[-1]) + 1
    counts = np.bincount(token_line, minlength=num_lines)
    nonempty = counts > 0
    # A line is a comment when its first token starts with '#'.
    first_token = np.searchsorted(token_line, np.nonzero(nonempty)[0], side="left")
    is_comment_line = np.zeros(num_lines, dtype=bool)
    is_comment_line[nonempty] = raw[starts[first_token]] == 0x23
    is_data_line = nonempty & ~is_comment_line
    if not np.all(counts[is_data_line] == 2):
        return None  # short line (error) or extra tokens (legal): fall back
    tokens: List[bytes] = data.split()
    keep = is_data_line[token_line]
    if not keep.all():
        tokens = list(itertools.compress(tokens, keep.tolist()))
    if not tokens:
        return np.empty((0, 2), dtype=np.int64)
    try:
        values = np.array(tokens, dtype="S").astype(np.int64)
    except (ValueError, OverflowError):
        return None  # non-integer token: fall back for the line number
    return values.reshape(-1, 2)


def load_edge_list(path: str | os.PathLike, *, name: str | None = None) -> CSRGraph:
    """Load a SNAP-style whitespace-separated edge list file."""
    base = name if name is not None else os.path.splitext(os.path.basename(path))[0]
    with open(path, "rb") as handle:
        data = handle.read()
    from .store import default_graph_store, edge_list_key

    store = default_graph_store()
    key = edge_list_key(data, base) if store is not None else None
    if store is not None:
        cached = store.get_key(key, name=base)
        if cached is not None:
            return cached
    pairs = _parse_edge_bytes(data)
    if pairs is None:
        graph = load_edge_list_reference(path, name=base)
    else:
        graph = from_edge_array(pairs, name=base)
    if store is not None:
        try:
            store.put_key(key, graph)
        except OSError:
            pass
    return graph


def load_edge_list_reference(
    path: str | os.PathLike, *, name: str | None = None
) -> CSRGraph:
    """The line-by-line reference parser (exact ``GraphError`` lines)."""
    edges: List[Tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) < 2:
                raise GraphError(f"{path}:{lineno}: expected 'u v', got {text!r}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise GraphError(f"{path}:{lineno}: non-integer vertex id") from exc
    base = name if name is not None else os.path.splitext(os.path.basename(path))[0]
    return from_edges(edges, name=base)


def save_edge_list(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write a graph as a SNAP-style edge list (one undirected edge per line)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# {graph.name}: {graph.num_vertices} vertices, {graph.num_edges} edges\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")
