"""The Shogun task tree: decoupled task generation and execution (§3.2).

The task tree is the structure that distinguishes Shogun from the task
*stack* of prior designs: completed tasks spawn children immediately
(no barrier), children wait in the tree as Ready entries, and a scheduler
picks execution order with both parallelism and locality in mind.

Layout (§3.2.1, Table 3): the task SPM is statically arranged as
Depth × Bunch.  A *bunch* groups same-parent sibling tasks; its entry
count equals the PE execution width so a full bunch can occupy the whole
PE (locality), while multiple bunches per depth provide non-sibling
candidates when siblings run short (parallelism).  Depth 0 and 1 have
``root_bunches`` bunches (2, for search-tree merging); deeper depths have
``bunches_per_depth`` (4).

State machine (§3.2.2, Figures 5/6): entries move through
Idle → Ready → Executing → Resting → Idle.  Spawning takes an idle bunch
at the next depth and fills it from the parent's candidate set; a task
that cannot spawn *extends* — it reuses its entry (and address token) to
explore the parent's next unexplored candidate; pruned candidates never
enter the tree (the symmetry bound already truncated the children list).
When a bunch drains it is recycled, its parent's subtree is complete, and
the completion propagates upward — at depth 0 that ends a search tree.

Scheduling (§3.2.3, Figure 7): prefer Ready siblings of the last
selected bunch; otherwise round-robin across bunches — unless
conservative mode forbids mixing non-siblings.  A task is only *valid*
if an address token for its depth is available (memory-footprint
control).

Representation
--------------
The tree state lives in a :class:`TaskTreeState` struct-of-arrays block:
per-bunch arrays (depth, capacity, in-use flag, tree id, active/executing
counts, quiesce flag, a FIFO ring of ready entry slots) and per-entry
arrays mirroring the :class:`SimTask` scheduling fields (vertex,
child index, held token).  That is the same flat layout the hardware
task SPM has — and it is what lets the hot scheduler decisions
(``tree_select`` / ``tree_fill`` / ``tree_complete``) run as compiled
backend kernels over raw ``int64`` buffers.  The object path
(:meth:`TaskTree._select_py`, :meth:`TaskTree._fill_py` and the
:meth:`TaskTree.on_complete` transition) is the model of record: the
pure backend always runs it, and the C kernels mirror it decision for
decision.

Python :class:`SimTask` objects are materialized *lazily*: a Ready entry
is just an array row until the scheduler picks it.  Executing and
Resting tasks are real objects (the PE pipeline and the split/merge
machinery need them); the object path and the kernels mutate the same
arrays, so there is exactly one source of truth.  Instrumented runs
(trace recorder, invariant checker) pin the tree to the interpreted
object path, whose token traffic flows through the per-depth
:class:`~repro.core.tokens.ArrayTokenPool` adapters the checker wraps.

A completion cannot soundly fuse the *next* ``tree_select`` into the
same compiled call: selections happen at dispatch events, completions at
completion events, and fusing them would start tasks one engine event
early (changing kick coalescing and root feeding, i.e. real metrics).
The compiled run-of-tasks instead lives at the dispatch site — one
``tree_select`` batch call drains every free execution slot
(:meth:`select_batch`), which is exactly equivalent to the per-call
loop because bookings never mutate tree state.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from .task import SimTask, TaskState
from .tokens import ArrayTokenPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.pe import PE

#: ``ctl`` control-word indices (shared with the backend kernels).
CTL_READY = 0       # schedulable Ready entries (quiesced trees included)
CTL_EXECUTING = 1   # entries currently in the PE pipeline
CTL_LAST_BUNCH = 2  # last-selected bunch (-1 = none): sibling preference
CTL_EXEC_BUNCH = 3  # bunch of the last dispatch (-1): conservative mode
CTL_RR_CURSOR = 4   # round-robin cursor over the global bunch list
CTL_SCHEDULED = 5   # diagnostic: tasks handed to the PE
CTL_STALLS = 6      # diagnostic: token-validity stalls
CTL_WAITS = 7       # diagnostic: spawns queued for an idle bunch
CTL_WORDS = 8

#: ``tree_complete`` transition results (shared with the backend kernels).
DONE_SPAWNED = 0    # children admitted into out[0] (count in out[1])
DONE_WAITING = 1    # no idle child bunch: parent queued
DONE_EXTENDED = 2   # entry + token reused for the next candidate
DONE_IDLED = 3      # entry idled, bunch still has active entries
DONE_RECYCLE = 4    # entry idled and the bunch drained: recycle in Python
DONE_UNDERFLOW = 5  # active-count underflow (simulator bug)

_DEBUG_CHECK = os.environ.get("REPRO_TREE_DEBUG", "") == "1"

#: Module-level switch for ``repro profile``'s scheduler attribution:
#: when on, trees accumulate per-op wall time in ``op_seconds``.
PROFILING = False


def enable_profiling(on: bool = True) -> None:
    """Toggle per-op timing on trees constructed afterwards."""
    global PROFILING
    PROFILING = on


class TaskTreeState:
    """Struct-of-arrays task-tree state (the simulated task SPM).

    All arrays are ``int64``; entry *slots* are globally numbered
    ``bunch * cap + position`` where ``cap`` is the widest bunch
    capacity, so one flat per-entry array serves every bunch.  The
    per-bunch ready FIFO is a ring (``ring``/``ring_head``/``ring_len``)
    over slot ids, supporting O(1) pop/push and ordered middle deletion
    for the token-validity scan.  Token pools are a LIFO free stack per
    depth (``tok_free``/``tok_n``), bit-compatible with
    :class:`~repro.core.tokens.TokenPool` order.
    """

    __slots__ = (
        "nb", "cap", "max_depth", "tokens_per_depth",
        "b_depth", "b_cap", "b_index", "b_in_use", "b_tree",
        "b_active", "b_executing", "b_quiesced",
        "ring", "ring_head", "ring_len",
        "e_vertex", "e_child_index", "e_token",
        "tok_free", "tok_n", "d_start", "d_end", "ctl",
    )

    def __init__(self, config, max_depth: int) -> None:
        layout: List[Tuple[int, int, int]] = []  # (depth, capacity, index)
        for depth in range(max_depth + 1):
            if depth == 0:
                per_depth = [(1, i) for i in range(config.root_bunches)]
            elif depth == 1:
                per_depth = [
                    (config.bunch_entries, i) for i in range(config.root_bunches)
                ]
            else:
                per_depth = [
                    (config.bunch_entries, i)
                    for i in range(config.bunches_per_depth)
                ]
            layout.extend((depth, cap, i) for cap, i in per_depth)

        nb = len(layout)
        cap = max(c for _, c, _ in layout)
        self.nb = nb
        self.cap = cap
        self.max_depth = max_depth
        self.tokens_per_depth = config.tokens_per_depth

        i64 = np.int64
        self.b_depth = np.array([d for d, _, _ in layout], dtype=i64)
        self.b_cap = np.array([c for _, c, _ in layout], dtype=i64)
        self.b_index = np.array([i for _, _, i in layout], dtype=i64)
        self.b_in_use = np.zeros(nb, dtype=i64)
        self.b_tree = np.full(nb, -1, dtype=i64)
        self.b_active = np.zeros(nb, dtype=i64)
        self.b_executing = np.zeros(nb, dtype=i64)
        self.b_quiesced = np.zeros(nb, dtype=i64)

        self.ring = np.zeros(nb * cap, dtype=i64)
        self.ring_head = np.zeros(nb, dtype=i64)
        self.ring_len = np.zeros(nb, dtype=i64)

        self.e_vertex = np.zeros(nb * cap, dtype=i64)
        self.e_child_index = np.zeros(nb * cap, dtype=i64)
        self.e_token = np.full(nb * cap, -1, dtype=i64)

        # Per-depth free stacks, top at the end: [T-1 .. 0] so token 0 is
        # acquired first — identical order to TokenPool's list.
        tpd = config.tokens_per_depth
        self.tok_free = np.zeros(max(1, max_depth) * tpd, dtype=i64)
        self.tok_n = np.zeros(max(1, max_depth), dtype=i64)
        for depth in range(max_depth):
            self.tok_free[depth * tpd:(depth + 1) * tpd] = np.arange(
                tpd - 1, -1, -1, dtype=i64
            )
            self.tok_n[depth] = tpd

        # Per-depth bunch index ranges (construction order preserved for
        # the idle-bunch scans).
        self.d_start = np.zeros(max_depth + 2, dtype=i64)
        self.d_end = np.zeros(max_depth + 2, dtype=i64)
        for depth in range(max_depth + 1):
            rows = [b for b, (d, _, _) in enumerate(layout) if d == depth]
            self.d_start[depth] = rows[0]
            self.d_end[depth] = rows[-1] + 1

        self.ctl = np.zeros(CTL_WORDS, dtype=i64)
        self.ctl[CTL_LAST_BUNCH] = -1
        self.ctl[CTL_EXEC_BUNCH] = -1


class Bunch:
    """Read-only object view of one bunch (debugging / introspection).

    The authoritative state lives in :class:`TaskTreeState`; this view is
    built on demand by :meth:`TaskTree.bunch_view` for the instrumented,
    splitting and merging inspection paths that want the PR-9-era object
    shape.  ``ready`` lists ``(slot, vertex, child_index, token)`` tuples
    in FIFO order.
    """

    __slots__ = ("depth", "capacity", "index", "parent", "ready", "active",
                 "executing", "in_use", "tree")

    def __init__(self, depth: int, capacity: int, index: int) -> None:
        self.depth = depth
        self.capacity = capacity
        self.index = index
        self.parent: Optional[SimTask] = None
        self.ready: List[Tuple[int, int, int, Optional[int]]] = []
        self.active = 0
        self.executing = 0
        self.in_use = False
        self.tree: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bunch(d={self.depth}, i={self.index}, in_use={self.in_use}, "
            f"ready={len(self.ready)}, active={self.active})"
        )


class TaskTree:
    """Per-PE task tree: storage, FSM and scheduler."""

    def __init__(self, pe: "PE", on_tree_done: Callable[[int], None]) -> None:
        self.pe = pe
        config = pe.config
        schedule = pe.schedule
        if schedule.max_depth > config.max_pattern_depth:
            raise SimulationError(
                f"pattern depth {schedule.max_depth} exceeds task tree "
                f"maximum {config.max_pattern_depth}"
            )
        self.max_depth = schedule.max_depth
        self.on_tree_done = on_tree_done

        self.state = TaskTreeState(config, self.max_depth)
        s = self.state

        #: Parent task of each in-use bunch (``None`` for root bunches).
        self._bunch_parent: List[Optional[SimTask]] = [None] * s.nb
        #: Static depth-0 bunch indices (geometry never changes).
        self._root_range = range(int(s.d_start[0]), int(s.d_end[0]))

        # Address tokens gate output-set storage; leaf tasks produce none.
        # The pools are views over the SoA token arrays (ArrayTokenPool),
        # so the object path and the kernels share one book.
        tpd = config.tokens_per_depth
        self.tokens: Dict[int, ArrayTokenPool] = {
            depth: ArrayTokenPool(
                s.tok_free[depth * tpd:(depth + 1) * tpd],
                s.tok_n[depth:depth + 1],
                tpd,
            )
            for depth in range(self.max_depth)
        }
        self._pool_dicts = tuple(p.__dict__ for p in self.tokens.values())
        #: Preallocated buffer addresses per (depth, token).
        self._addr: List[List[int]] = [
            [pe.buffer_map.address(d, t) for t in range(tpd)]
            for d in range(self.max_depth)
        ]

        self._waiting_spawn: Dict[int, Deque[SimTask]] = {
            depth: deque() for depth in range(1, self.max_depth + 1)
        }
        self._quiesced_trees: set = set()
        self._live_trees: set = set()

        # Scheduler-attribution diagnostics (``repro profile``): per-op
        # kernel/object call counts, object-path escape reasons, and —
        # when profiling is enabled — per-op wall time.
        self.op_calls = {
            "select_kernel": 0, "select_object": 0,
            "fill_kernel": 0, "fill_object": 0,
            "complete_kernel": 0, "complete_object": 0,
        }
        self.op_escapes = {
            "instrumented": 0,   # trace/invariant hooks pin the object path
            "pinned_off": 0,     # tree_kernels=False, or the pure backend
            "list_span": 0,      # children not a contiguous int64 span
            "cold_path": 0,      # recycle propagation / partition intake
        }
        self.op_seconds = {"select": 0.0, "fill": 0.0, "complete": 0.0}
        self._profiling = PROFILING

        self._out_slots = np.zeros(max(16, s.nb * s.cap), dtype=np.int64)
        self._out2 = np.zeros(2, dtype=np.int64)
        self._empty_children = np.zeros(0, dtype=np.int64)
        self._kernel_ops = None
        self._bind_kernels(config)

    # ------------------------------------------------------------------
    # kernel binding
    # ------------------------------------------------------------------
    def _bind_kernels(self, config) -> None:
        """Bind the backend's compiled tree kernels over this tree's arrays.

        ``config.tree_kernels`` on (None or True) uses them wherever the
        active backend is compiled (``cext``); under ``pure``, or with
        ``tree_kernels=False``, every decision runs on the object path
        (the model of record).
        """
        binder = self.pe.memory._kernels.tree_bind
        if config.tree_kernels is not False and binder is not None:
            self._kernel_ops = binder(self.state)

    def _kernels_allowed(self) -> bool:
        """Whether the compiled path may run *right now*.

        Instrumentation (trace recorder, invariant checker) installs
        instance-attribute wrappers on the PE hooks and/or the token
        pool adapters; any of those pins the tree to the object path so
        every wrapped call keeps firing.  Checked per call — hooks can
        attach at any time between events.
        """
        pe_dict = self.pe.__dict__
        if "_start_task" in pe_dict or "_complete_task" in pe_dict:
            return False
        for pool_dict in self._pool_dicts:
            if "acquire" in pool_dict or "release" in pool_dict:
                return False
        return True

    # ------------------------------------------------------------------
    # root / partition intake
    # ------------------------------------------------------------------
    def free_root_slots(self) -> int:
        """Idle depth-0 bunches (capacity for new search trees).

        The depth-0 range is tiny (``root_bunches``, typically 2) and
        this runs on the root-feed path, so scalar reads beat a numpy
        slice reduction.
        """
        in_use = self.state.b_in_use
        n = 0
        for b in self._root_range:
            if not in_use[b]:
                n += 1
        return n

    def add_root(self, vertex: int, tree_id: int) -> None:
        """Install a new search-tree root as a Ready depth-0 entry."""
        b = self._idle_bunch(0)
        if b is None:
            raise SimulationError("no idle depth-0 bunch for a new root")
        s = self.state
        slot = b * s.cap
        s.b_in_use[b] = 1
        s.b_tree[b] = tree_id
        self._bunch_parent[b] = None
        s.b_active[b] = 1
        s.b_quiesced[b] = 0
        s.e_vertex[slot] = vertex
        s.e_child_index[slot] = 0
        s.e_token[slot] = -1
        s.ring[slot] = slot
        s.ring_head[b] = 0
        s.ring_len[b] = 1
        s.ctl[CTL_READY] += 1
        self._live_trees.add(tree_id)

    def add_partition(
        self, prefix: Tuple[int, ...], children: List[int], tree_id: int
    ) -> List[SimTask]:
        """Install a split search-tree partition (task-tree splitting, §4.1).

        The partition arrives *already executed* down to the split task:
        the message carried the embedding prefix (just the root vertex in
        the paper's depth-0-only scheme), the assigned candidate range
        and the prefix's candidate-set cache lines.  The local entries
        for the whole prefix are created directly in Resting state and
        the deepest one spawns from the assigned range.
        """
        s = self.state
        chain: List[SimTask] = []
        parent: Optional[SimTask] = None
        for d, vertex in enumerate(prefix):
            b = self._idle_bunch(d)
            if b is None:
                raise SimulationError(f"no idle depth-{d} bunch for a partition")
            task = SimTask(
                depth=d,
                vertex=int(vertex),
                embedding=tuple(int(v) for v in prefix[: d + 1]),
                parent=parent,
                tree=tree_id,
            )
            slot = b * s.cap
            if d < self.max_depth:
                token = self.tokens[d].acquire()
                if token is None:
                    raise SimulationError(f"no depth-{d} token for a partition")
                task.token = token
                task.set_address = self.pe.buffer_map.address(d, token)
                s.e_token[slot] = token
            else:
                s.e_token[slot] = -1
            task.expansion = self.pe.context.expand(task.embedding)
            if d < len(prefix) - 1:
                # Interior prefix entry: its only live candidate is the
                # next prefix vertex; everything else stays on the donor.
                task.children_vertices = [int(prefix[d + 1])]
                task.next_child = 1
            else:
                task.children_vertices = list(children)
            task.state = TaskState.RESTING
            task.bunch = b
            task.slot = slot
            s.e_vertex[slot] = task.vertex
            s.e_child_index[slot] = 0
            s.b_in_use[b] = 1
            s.b_tree[b] = tree_id
            self._bunch_parent[b] = parent
            s.b_active[b] = 1
            s.b_quiesced[b] = 0
            self.pe.footprint_add(len(task.expansion.candidates) * 4)
            chain.append(task)
            parent = task
        self._live_trees.add(tree_id)
        self._spawn_or_wait(chain[-1])
        return chain

    def _idle_bunch(self, depth: int) -> Optional[int]:
        s = self.state
        in_use = s.b_in_use
        for b in range(int(s.d_start[depth]), int(s.d_end[depth])):
            if not in_use[b]:
                return b
        return None

    # ------------------------------------------------------------------
    # scheduling (Figure 7)
    # ------------------------------------------------------------------
    def select(self, conservative: bool) -> Optional[SimTask]:
        """Pick the next task to execute, honoring tokens and the mode.

        Bunches are considered in preference order (siblings of the last
        selection first, then round-robin; conservative mode restricts to
        the executing bunch).  The decision itself runs in the backend's
        ``tree_select`` kernel when one is bound and no instrumentation
        pins the object path; both paths mutate the same arrays.
        """
        s = self.state
        if not s.ctl[CTL_READY]:
            return None
        ops = self._kernel_ops
        if ops is not None and self._kernels_allowed():
            self.op_calls["select_kernel"] += 1
            if self._profiling:
                begin = time.perf_counter()
                n = ops.select(1 if conservative else 0, 1, self._out_slots)
                self.op_seconds["select"] += time.perf_counter() - begin
            else:
                n = ops.select(1 if conservative else 0, 1, self._out_slots)
            if n == 0:
                return None
            return self._materialize(int(self._out_slots[0]))
        if ops is not None:
            self.op_escapes["instrumented"] += 1
        else:
            self.op_escapes["pinned_off"] += 1
        self.op_calls["select_object"] += 1
        return self._select_py(conservative)

    def select_batch(self, conservative: bool, limit: int) -> List[SimTask]:
        """Schedule up to ``limit`` tasks in one compiled run.

        Exactly equivalent to calling :meth:`select` ``limit`` times and
        stopping at the first ``None``: a selection only reads and writes
        tree/token state, which bookings never touch, so draining a whole
        dispatch's worth of free slots in one kernel call preserves
        per-call order bit-for-bit (including token-stall accounting).
        """
        if limit <= 0:
            return []
        s = self.state
        if not s.ctl[CTL_READY]:
            return []
        ops = self._kernel_ops
        if ops is not None and self._kernels_allowed():
            out = self._out_slots
            self.op_calls["select_kernel"] += 1
            if self._profiling:
                begin = time.perf_counter()
                n = ops.select(1 if conservative else 0, limit, out)
                self.op_seconds["select"] += time.perf_counter() - begin
            else:
                n = ops.select(1 if conservative else 0, limit, out)
            materialize = self._materialize
            return [materialize(int(out[i])) for i in range(n)]
        if ops is not None:
            self.op_escapes["instrumented"] += 1
        else:
            self.op_escapes["pinned_off"] += 1
        tasks: List[SimTask] = []
        select_py = self._select_py
        calls = self.op_calls
        while len(tasks) < limit:
            if not s.ctl[CTL_READY]:
                break
            calls["select_object"] += 1
            task = select_py(conservative)
            if task is None:
                break
            tasks.append(task)
        return tasks

    def _select_py(self, conservative: bool) -> Optional[SimTask]:
        """Model of record for one selection (the ``tree_select`` kernel
        mirrors it)."""
        s = self.state
        ctl = s.ctl
        ring_len = s.ring_len
        quiesced = s.b_quiesced
        if conservative and ctl[CTL_EXECUTING] > 0:
            b = int(ctl[CTL_EXEC_BUNCH])
            if b >= 0 and ring_len[b] and not quiesced[b]:
                return self._schedule_from(b)
            return None
        last = int(ctl[CTL_LAST_BUNCH])
        if last >= 0 and ring_len[last] and not quiesced[last]:
            task = self._schedule_from(last)
            if task is not None:
                return task
        n = s.nb
        start = int(ctl[CTL_RR_CURSOR])
        for offset in range(n):
            b = (start + offset) % n
            if b == last or not ring_len[b] or quiesced[b]:
                continue
            ctl[CTL_RR_CURSOR] = (start + offset + 1) % n
            task = self._schedule_from(b)
            if task is not None:
                return task
        return None

    def _schedule_from(self, b: int) -> Optional[SimTask]:
        """Schedule one Ready entry out of bunch ``b`` (``None`` = stall).

        Extended entries keep their token; only tokenless entries contend
        for the depth's pool (the Figure 7 valid check).  With the pool
        drained, a token-holding entry anywhere in the bunch is still
        schedulable — the scheduler reads all entries of a bunch, so no
        head-of-line blocking.
        """
        s = self.state
        depth = int(s.b_depth[b])
        leaf = depth >= self.max_depth
        cap = s.cap
        base = b * cap
        ring = s.ring
        head = int(s.ring_head[b])
        length = int(s.ring_len[b])
        if leaf or s.tok_n[depth] > 0:
            slot = int(ring[base + head])
            s.ring_head[b] = (head + 1) % cap
            s.ring_len[b] = length - 1
        else:
            e_token = s.e_token
            slot = -1
            for j in range(length):
                cand = int(ring[base + (head + j) % cap])
                if e_token[cand] >= 0:
                    slot = cand
                    for k in range(j, length - 1):
                        ring[base + (head + k) % cap] = (
                            ring[base + (head + k + 1) % cap]
                        )
                    s.ring_len[b] = length - 1
                    break
            if slot < 0:
                s.ctl[CTL_STALLS] += 1
                return None
        s.ctl[CTL_READY] -= 1
        if not leaf and s.e_token[slot] < 0:
            # The pool was non-empty (checked above); acquire through the
            # adapter so instrumented wrappers observe the traffic.
            s.e_token[slot] = self.tokens[depth].acquire()
        s.b_executing[b] += 1
        ctl = s.ctl
        ctl[CTL_EXECUTING] += 1
        ctl[CTL_EXEC_BUNCH] = b
        ctl[CTL_LAST_BUNCH] = b
        ctl[CTL_SCHEDULED] += 1
        return self._materialize(slot, b)

    def _materialize(self, slot: int, b: Optional[int] = None) -> SimTask:
        """Build the Executing :class:`SimTask` for a just-scheduled slot."""
        s = self.state
        if b is None:
            b = slot // s.cap
        parent = self._bunch_parent[b]
        v = int(s.e_vertex[slot])
        depth = int(s.b_depth[b])
        task = SimTask(
            depth=depth,
            vertex=v,
            embedding=(parent.embedding + (v,)) if parent is not None else (v,),
            parent=parent,
            tree=int(s.b_tree[b]),
            child_index=int(s.e_child_index[slot]),
        )
        task.state = TaskState.EXECUTING
        task.bunch = b
        task.slot = slot
        token = int(s.e_token[slot])
        if token >= 0:
            task.token = token
            addrs = self._addr[depth]
            task.set_address = (
                addrs[token]
                if token < len(addrs)
                else self.pe.buffer_map.address(depth, token)
            )
        return task

    # ------------------------------------------------------------------
    # completion, spawning, extending (Figures 5/6)
    # ------------------------------------------------------------------
    def on_complete(self, task: SimTask) -> None:
        """A task finished its PE pipeline; advance the FSM."""
        b = self._bunch_of(task)
        s = self.state
        cv = task.children_vertices
        has_children = cv is not None and len(cv) > 0
        ops = self._kernel_ops
        if ops is not None:
            if not self._kernels_allowed():
                self.op_escapes["instrumented"] += 1
            elif has_children and not (
                isinstance(cv, np.ndarray) and cv.dtype == np.int64
            ):
                # Partition interiors / tests hand the tree plain lists;
                # the kernel wants one contiguous int64 span.
                self.op_escapes["list_span"] += 1
            else:
                self._complete_kernel(task, b, cv, has_children)
                return
        else:
            self.op_escapes["pinned_off"] += 1
        self.op_calls["complete_object"] += 1
        s.b_executing[b] -= 1
        s.ctl[CTL_EXECUTING] -= 1
        if has_children:
            self._spawn_or_wait(task)
        else:
            self._retire_set(task)
            self._extend_or_idle(task, b)

    def _complete_kernel(self, task, b, cv, has_children) -> None:
        """Run the whole completion transition in the backend kernel."""
        ops = self._kernel_ops
        self.op_calls["complete_kernel"] += 1
        out = self._out2
        if has_children:
            first = task.next_child
            tree_quiesced = 1 if task.tree in self._quiesced_trees else 0
            if self._profiling:
                begin = time.perf_counter()
                action = ops.complete(
                    task.slot, b, 1, cv, first, len(cv), 0, 0, 0,
                    tree_quiesced, out,
                )
                self.op_seconds["complete"] += time.perf_counter() - begin
            else:
                action = ops.complete(
                    task.slot, b, 1, cv, first, len(cv), 0, 0, 0,
                    tree_quiesced, out,
                )
            task.state = TaskState.RESTING
            if action == DONE_SPAWNED:
                target = int(out[0])
                self._bunch_parent[target] = task
                task.next_child = first + int(out[1])
                return
            if action == DONE_UNDERFLOW:
                raise SimulationError("spawning with no unexplored candidates")
            # DONE_WAITING: the kernel counted the wait; queue the parent.
            self._waiting_spawn[task.depth + 1].append(task)
            return
        self._retire_set(task)
        parent = task.parent
        ext_vertex = 0
        ext_position = 0
        unexplored = 0
        if parent is not None:
            unexplored = parent.unexplored
            if unexplored > 0:
                ext_position = parent.next_child
                ext_vertex = int(parent.children_vertices[ext_position])
        if self._profiling:
            begin = time.perf_counter()
            action = ops.complete(
                task.slot, b, 0, self._empty_children, 0, 0,
                unexplored, ext_vertex, ext_position, 0, out,
            )
            self.op_seconds["complete"] += time.perf_counter() - begin
        else:
            action = ops.complete(
                task.slot, b, 0, self._empty_children, 0, 0,
                unexplored, ext_vertex, ext_position, 0, out,
            )
        if action == DONE_EXTENDED:
            parent.next_child = ext_position + 1
            task.state = TaskState.IDLE
            return
        if action == DONE_UNDERFLOW:
            raise SimulationError("bunch active count underflow")
        # DONE_IDLED / DONE_RECYCLE: the kernel released the entry token.
        task.token = None
        task.state = TaskState.IDLE
        if action == DONE_RECYCLE:
            self.op_escapes["cold_path"] += 1
            self._recycle(b)

    def _bunch_of(self, task: SimTask) -> int:
        # Every entry records its bunch when installed; fall back to the
        # structural scan (children live in the bunch whose parent is
        # task.parent; roots in depth-0 bunches keyed by tree) for tasks
        # built outside the normal intake paths.
        s = self.state
        b = task.bunch
        if b is not None and b >= 0 and s.b_in_use[b]:
            return b
        bunch_parent = self._bunch_parent
        for b in range(int(s.d_start[task.depth]), int(s.d_end[task.depth])):
            if s.b_in_use[b] and (
                (task.parent is None and s.b_tree[b] == task.tree
                 and bunch_parent[b] is None)
                or (task.parent is not None
                    and bunch_parent[b] is task.parent)
            ):
                return b
        raise SimulationError(f"task {task!r} belongs to no bunch")

    def _spawn_or_wait(self, task: SimTask) -> None:
        """Spawn a child bunch now, or queue until one is idle."""
        child_depth = task.depth + 1
        b = self._idle_bunch(child_depth)
        task.state = TaskState.RESTING
        if b is None:
            self.state.ctl[CTL_WAITS] += 1
            self._waiting_spawn[child_depth].append(task)
            return
        self._fill_bunch(task, b)

    def _fill_bunch(self, parent: SimTask, b: int) -> None:
        """Admit the parent's next candidate span into idle bunch ``b``.

        Children are *not* materialized: each becomes one row of the
        per-entry arrays plus a ready-ring slot, built from the parent's
        contiguous candidate span in one pass (compiled ``tree_fill``
        when bound; :meth:`_fill_py` otherwise).
        """
        s = self.state
        vertices = parent.children_vertices
        first = parent.next_child
        count = min(int(s.b_cap[b]), len(vertices) - first)
        if count <= 0:
            raise SimulationError("spawning with no unexplored candidates")
        tree = parent.tree
        quiesced = 1 if tree in self._quiesced_trees else 0
        self._bunch_parent[b] = parent
        ops = self._kernel_ops
        if (
            ops is not None
            and isinstance(vertices, np.ndarray)
            and vertices.dtype == np.int64
            and self._kernels_allowed()
        ):
            self.op_calls["fill_kernel"] += 1
            if self._profiling:
                begin = time.perf_counter()
                ops.fill(b, tree, quiesced, vertices, first, count)
                self.op_seconds["fill"] += time.perf_counter() - begin
            else:
                ops.fill(b, tree, quiesced, vertices, first, count)
        else:
            if ops is None:
                self.op_escapes["pinned_off"] += 1
            elif not self._kernels_allowed():
                self.op_escapes["instrumented"] += 1
            else:
                self.op_escapes["list_span"] += 1
            self.op_calls["fill_object"] += 1
            self._fill_py(b, tree, quiesced, vertices, first, count)
        parent.next_child = first + count

    def _fill_py(self, b, tree, quiesced, vertices, first, count) -> None:
        """Model of record for one bunch admission (the ``tree_fill``
        kernel mirrors it, argument for argument)."""
        s = self.state
        s.b_in_use[b] = 1
        s.b_tree[b] = tree
        s.b_quiesced[b] = quiesced
        base = b * s.cap
        e_vertex = s.e_vertex
        e_child_index = s.e_child_index
        e_token = s.e_token
        ring = s.ring
        for i in range(count):
            slot = base + i
            e_vertex[slot] = vertices[first + i]
            e_child_index[slot] = first + i
            e_token[slot] = -1
            ring[slot] = slot
        s.ring_head[b] = 0
        s.ring_len[b] = count
        s.ctl[CTL_READY] += count
        s.b_active[b] = count

    def _extend_or_idle(self, task: SimTask, b: int) -> None:
        """Task extending / entry recycling (§3.2.2)."""
        s = self.state
        parent = task.parent
        if parent is not None and parent.unexplored > 0:
            position = parent.next_child
            parent.next_child = position + 1
            slot = task.slot
            # Entry and address token are reused by the extended entry.
            s.e_vertex[slot] = parent.children_vertices[position]
            s.e_child_index[slot] = position
            task.state = TaskState.IDLE
            cap = s.cap
            s.ring[b * cap + (int(s.ring_head[b]) + int(s.ring_len[b])) % cap] = slot
            s.ring_len[b] += 1
            s.ctl[CTL_READY] += 1
            return
        # No candidate to extend onto: the entry idles.
        if task.token is not None:
            self.tokens[task.depth].release(task.token)
            task.token = None
        s.e_token[task.slot] = -1
        task.state = TaskState.IDLE
        s.b_active[b] -= 1
        if s.b_active[b] < 0:
            raise SimulationError("bunch active count underflow")
        if s.b_active[b] == 0:
            self._recycle(b)

    def _retire_set(self, task: SimTask) -> None:
        """The task's candidate set (if any) is dead; drop its footprint."""
        if task.expansion is not None:
            self.pe.footprint_remove(len(task.expansion.candidates) * 4)

    def _recycle(self, b: int) -> None:
        """Recycle a drained bunch and propagate subtree completion.

        This is the cold edge of the FSM (waiter refill, tree completion
        callbacks, upward propagation through Python parent objects) and
        deliberately stays interpreted; the kernels stop at
        ``DONE_RECYCLE`` and hand the drained bunch here.
        """
        s = self.state
        parent = self._bunch_parent[b]
        tree = int(s.b_tree[b])
        depth = int(s.b_depth[b])
        s.b_in_use[b] = 0
        self._bunch_parent[b] = None
        s.b_tree[b] = -1
        s.b_executing[b] = 0
        s.b_quiesced[b] = 0
        s.ring_head[b] = 0
        s.ring_len[b] = 0
        ctl = s.ctl
        if ctl[CTL_LAST_BUNCH] == b:
            ctl[CTL_LAST_BUNCH] = -1
        if ctl[CTL_EXEC_BUNCH] == b:
            ctl[CTL_EXEC_BUNCH] = -1

        # A freed bunch first serves parents waiting to spawn at this depth.
        waiters = self._waiting_spawn.get(depth)
        if waiters:
            self._fill_bunch(waiters.popleft(), b)

        if parent is None:
            # A depth-0 bunch drained: the search tree is fully explored.
            self._live_trees.discard(tree)
            self._quiesced_trees.discard(tree)
            self.on_tree_done(tree)
            return
        if parent.unexplored != 0:
            raise SimulationError(
                "bunch drained while its parent still has unexplored candidates"
            )
        # Parent leaves Resting: its candidate set is fully explored.
        parent_bunch = self._bunch_of(parent)
        self._retire_set(parent)
        self._extend_or_idle(parent, parent_bunch)

    # ------------------------------------------------------------------
    # introspection / merging support
    # ------------------------------------------------------------------
    def has_work(self) -> bool:
        """Whether any search tree is still live on this PE."""
        return bool(self._live_trees)

    def ready_count(self) -> int:
        """Schedulable Ready tasks (quiesced trees excluded).

        Reads the SoA counters directly: ``ctl[CTL_READY]`` in the
        common no-quiesce case, a masked ring-length sum otherwise.
        """
        s = self.state
        if not self._quiesced_trees:
            count = int(s.ctl[CTL_READY])
        else:
            mask = (s.ring_len > 0) & (s.b_quiesced == 0)
            count = int(s.ring_len[mask].sum())
        if _DEBUG_CHECK:
            self._debug_cross_check(count)
        return count

    def executing_count(self) -> int:
        """Tasks currently in the PE pipeline (SoA counter)."""
        return int(self.state.ctl[CTL_EXECUTING])

    def _debug_cross_check(self, ready: int) -> None:
        """REPRO_TREE_DEBUG=1: counters vs the object view, every read."""
        s = self.state
        view_ready = sum(
            len(b.ready)
            for views in self.bunch_views().values()
            for b in views
            if b.ready and b.tree not in self._quiesced_trees
        )
        total = int(s.ring_len.sum())
        if ready != view_ready or int(s.ctl[CTL_READY]) != total:
            raise SimulationError(
                f"SoA/object ready divergence: counter={ready} "
                f"view={view_ready} ctl={int(s.ctl[CTL_READY])} rings={total}"
            )
        if int(s.ctl[CTL_EXECUTING]) != int(s.b_executing.sum()):
            raise SimulationError("SoA/object executing divergence")

    #: Diagnostic counters (read by metrics collection) — SoA-backed.
    @property
    def spawn_waits(self) -> int:
        return int(self.state.ctl[CTL_WAITS])

    @property
    def token_stalls(self) -> int:
        return int(self.state.ctl[CTL_STALLS])

    @property
    def tasks_scheduled(self) -> int:
        return int(self.state.ctl[CTL_SCHEDULED])

    def live_tree_ids(self) -> List[int]:
        """Identifiers of live (possibly quiesced) trees."""
        return sorted(self._live_trees)

    def quiesce_tree(self, tree_id: int) -> None:
        """Freeze a tree's Ready/Resting work (merging recovery, §4.2)."""
        if tree_id in self._live_trees:
            self._quiesced_trees.add(tree_id)
            s = self.state
            s.b_quiesced[(s.b_in_use == 1) & (s.b_tree == tree_id)] = 1

    def wake_tree(self, tree_id: int) -> None:
        """Resume a quiesced tree."""
        self._quiesced_trees.discard(tree_id)
        s = self.state
        s.b_quiesced[s.b_tree == tree_id] = 0

    def quiesced_tree_ids(self) -> List[int]:
        """Currently quiesced trees."""
        return sorted(self._quiesced_trees)

    def tree_stats(self, tree_id: int) -> Dict[str, int]:
        """Occupancy of one tree (victim selection for quiescing)."""
        s = self.state
        mine = (s.b_in_use == 1) & (s.b_tree == tree_id)
        bunches = int(mine.sum())
        max_depth = int(s.b_depth[mine].max()) if bunches else 0
        return {"bunches": bunches, "max_depth": max_depth}

    def bunch_views(self) -> Dict[int, List[Bunch]]:
        """Object view of every bunch (depth → construction order)."""
        views: Dict[int, List[Bunch]] = {
            depth: [] for depth in range(self.max_depth + 1)
        }
        for b in range(self.state.nb):
            view = self.bunch_view(b)
            views[view.depth].append(view)
        return views

    def bunch_view(self, b: int) -> Bunch:
        """Materialize the read-only object view of bunch ``b``."""
        s = self.state
        view = Bunch(int(s.b_depth[b]), int(s.b_cap[b]), int(s.b_index[b]))
        view.in_use = bool(s.b_in_use[b])
        view.tree = int(s.b_tree[b]) if s.b_tree[b] >= 0 else None
        view.parent = self._bunch_parent[b]
        view.active = int(s.b_active[b])
        view.executing = int(s.b_executing[b])
        base = b * s.cap
        head = int(s.ring_head[b])
        for j in range(int(s.ring_len[b])):
            slot = int(s.ring[base + (head + j) % s.cap])
            token = int(s.e_token[slot])
            view.ready.append((
                slot,
                int(s.e_vertex[slot]),
                int(s.e_child_index[slot]),
                token if token >= 0 else None,
            ))
        return view

    # ------------------------------------------------------------------
    # splitting support (§4.1)
    # ------------------------------------------------------------------
    def harvest_split_pool(self, task: SimTask) -> List[int]:
        """Withdraw the shippable candidate range of ``task`` (§4.1).

        The pool is the task's unexplored candidate range plus any Ready
        (not yet executing, not extended) child entries, which are
        reclaimed from their bunch — reclaiming a Ready entry is the same
        hardware operation as quiescing it, just followed by a range
        update instead of a later wake.  At least one live entry is
        always left behind so the donor's subtree completion path stays
        intact.  Returns the pooled candidate vertices in their original
        candidate-set order; the caller re-appends the donor's share.
        """
        s = self.state
        cv = task.children_vertices
        explored = [int(v) for v in cv[: task.next_child]]
        pool: List[Tuple[int, int]] = [
            (idx, int(cv[idx])) for idx in range(task.next_child, len(cv))
        ]
        b = self._child_bunch(task)
        if b is not None:
            # Ready entries without a token belong to ``task`` by
            # construction (the bunch's parent is ``task``).
            cap = s.cap
            base = b * cap
            head = int(s.ring_head[b])
            length = int(s.ring_len[b])
            positions = [
                j for j in range(length)
                if s.e_token[int(s.ring[base + (head + j) % cap])] < 0
            ]
            if int(s.b_active[b]) - len(positions) < 1 and positions:
                positions = positions[1:]  # leave one Ready entry behind
            for j in reversed(positions):
                slot = self._ring_delete(b, j)
                s.b_active[b] -= 1
                s.ctl[CTL_READY] -= 1
                pool.append((int(s.e_child_index[slot]), int(s.e_vertex[slot])))
        pool.sort()
        task.children_vertices = explored
        task.next_child = len(explored)
        return [v for _, v in pool]

    def _ring_delete(self, b: int, j: int) -> int:
        """Remove the ``j``-th logical ready entry of ``b``; return its slot."""
        s = self.state
        cap = s.cap
        base = b * cap
        ring = s.ring
        head = int(s.ring_head[b])
        length = int(s.ring_len[b])
        slot = int(ring[base + (head + j) % cap])
        for k in range(j, length - 1):
            ring[base + (head + k) % cap] = ring[base + (head + k + 1) % cap]
        s.ring_len[b] = length - 1
        return slot

    def _child_bunch(self, task: SimTask) -> Optional[int]:
        if task.depth + 1 > self.max_depth:
            return None
        s = self.state
        depth = task.depth + 1
        bunch_parent = self._bunch_parent
        for b in range(int(s.d_start[depth]), int(s.d_end[depth])):
            if s.b_in_use[b] and bunch_parent[b] is task:
                return b
        return None

    def split_potential(self, task: SimTask) -> int:
        """Candidates :meth:`harvest_split_pool` could withdraw for ``task``."""
        potential = task.unexplored
        b = self._child_bunch(task)
        if b is not None:
            s = self.state
            cap = s.cap
            base = b * cap
            head = int(s.ring_head[b])
            reclaimable = sum(
                1 for j in range(int(s.ring_len[b]))
                if s.e_token[int(s.ring[base + (head + j) % cap])] < 0
            )
            if int(s.b_active[b]) - reclaimable < 1:
                reclaimable = max(0, reclaimable - 1)
            potential += reclaimable
        return potential

    def splittable_task(self, depth_limit: int = 0) -> Optional[SimTask]:
        """The shallowest/heaviest task with a shippable candidate range.

        The paper splits only the depth-0 task's depth-1 range
        (``depth_limit=0``); larger limits extend the same mechanism to
        deeper Resting tasks — the partition message just carries a
        longer embedding prefix.  Returns ``None`` when no task could
        ship at least two candidates.
        """
        s = self.state
        best: Optional[SimTask] = None
        best_key: Optional[Tuple[int, int]] = None
        candidates: List[SimTask] = []
        bunch_parent = self._bunch_parent
        for depth in range(0, min(depth_limit, self.max_depth - 1) + 1):
            for b in range(int(s.d_start[depth + 1]), int(s.d_end[depth + 1])):
                if s.b_in_use[b] and bunch_parent[b] is not None:
                    candidates.append(bunch_parent[b])
            for waiter in self._waiting_spawn.get(depth + 1, ()):
                if waiter.depth == depth:
                    candidates.append(waiter)
        for task in candidates:
            if task.tree in self._quiesced_trees:
                continue
            potential = self.split_potential(task)
            if potential < 2:
                continue
            key = (task.depth, -potential)  # shallowest first, then heaviest
            if best_key is None or key < best_key:
                best = task
                best_key = key
        return best
