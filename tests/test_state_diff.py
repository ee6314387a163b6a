"""End-of-run state diff: the C hot paths vs the Python model of record.

The parity suites (``test_macro_step.py``, ``test_task_tree_soa.py``)
compare the ``RunMetrics`` a run reports.  This suite compares the
simulator's *state* once a run has finished: every
:class:`~repro.core.task_tree.TaskTreeState` array of every PE's task
tree, every PE struct-of-arrays column, the L1/L2 tag/stamp/meta
arrays, the L1 latency windows, the L2 bank clocks and the IU pools
(as the multiset of server free times, the only part a run observes).
The compiled side runs the C backend with the macro-step core and the
tree kernels on; the reference runs the pure backend with
``macro_step=False, tree_kernels=False``, so no C code touches it.  A
divergence that cancels out in the aggregates (a different LRU victim,
a ring slot written in another order) still shows here, and the failure
names every array that differs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.task_tree import TaskTreeState
from repro.graph import load_dataset
from repro.patterns import benchmark_schedule
from repro.sim import SimConfig, backend
from repro.sim.accelerator import Accelerator
from repro.sim.pe import PEStateVector

pytestmark = pytest.mark.skipif(
    not backend.available_backends()["cext"][0],
    reason="the cext backend did not build (cffi or a C compiler missing)",
)

SCALE = 0.2

#: (pattern, policy, config overrides): the production shogun cells,
#: token starvation (stall scans in the select kernel), a small L1
#: (macro escapes on cache misses) and a non-tree policy.
CELLS = [
    ("tc", "shogun", {}),
    ("4cl", "shogun", {}),
    ("4cl", "shogun", {"tokens_per_depth": 1}),
    ("4cl", "shogun", {"l1_kb": 2}),
    ("4cl", "fingers", {}),
]


@pytest.fixture(autouse=True)
def _restore_backend():
    before = backend.active()
    yield
    backend._install(before)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wi", scale=SCALE)


def end_state(accel) -> dict:
    """Copies of every simulator array the hot paths write, by name."""
    arrays = {}
    rows = accel.pe_state
    for name in PEStateVector.__slots__:
        arrays[f"pe_state.{name}"] = getattr(rows, name)
    memory = accel.memory
    caches = [("l2", memory.l2)] + [
        (f"l1[{i}]", cache) for i, cache in enumerate(memory.l1s)
    ]
    for label, cache in caches:
        for name in ("_tags", "_stamps", "_meta"):
            arrays[f"{label}.{name}"] = getattr(cache, name)
    for i, window in enumerate(memory.l1_windows):
        arrays[f"l1_window[{i}]"] = window._state
    arrays["memory._l2_bank_free"] = memory._l2_bank_free
    arrays["memory._stats"] = memory._stats
    for pe in accel.pes:
        # Only the multiset of server free times is observable (see
        # IUPool.submit): the Python pool picks tied minima through
        # argpartition, the C core through argmin, so compare sorted.
        arrays[f"iu[{pe.pe_id}]._server_free"] = np.sort(pe.iu_pool._server_free)
        arrays[f"iu[{pe.pe_id}]._acc"] = pe.iu_pool._acc
        tree = getattr(pe.policy, "tree", None)
        if tree is not None:
            for name in TaskTreeState.__slots__:
                arrays[f"tree[{pe.pe_id}].{name}"] = getattr(tree.state, name)
    return {name: np.array(value, copy=True) for name, value in arrays.items()}


def _run(graph, pattern, policy, config):
    accel = Accelerator(graph, benchmark_schedule(pattern), config, policy=policy)
    metrics = accel.run()
    return accel, metrics, end_state(accel)


class TestEndStateDiff:
    @pytest.mark.parametrize(
        "pattern,policy,overrides", CELLS,
        ids=[f"{p}-{pol}-{'-'.join(o) or 'eval'}" for p, pol, o in CELLS],
    )
    def test_compiled_end_state_matches_model_of_record(
        self, graph, pattern, policy, overrides
    ):
        base = SimConfig(**overrides)
        accel, metrics, compiled = _run(
            graph, pattern, policy,
            base.replace(backend="cext", macro_step=True, tree_kernels=True),
        )
        # The compiled paths really carried the run.
        assert accel.macro is not None and accel.macro.coverage()["drained"] > 0
        trees = [pe.policy.tree for pe in accel.pes if hasattr(pe.policy, "tree")]
        if policy == "shogun":
            assert trees and all(t._kernel_ops is not None for t in trees)
            assert sum(t.op_calls["select_kernel"] for t in trees) > 0

        _, ref_metrics, reference = _run(
            graph, pattern, policy,
            base.replace(backend="pure", macro_step=False, tree_kernels=False),
        )
        assert metrics.to_dict() == ref_metrics.to_dict()
        assert compiled.keys() == reference.keys()
        diverged = [
            name for name in compiled
            if compiled[name].shape != reference[name].shape
            or not np.array_equal(compiled[name], reference[name])
        ]
        assert not diverged, f"end state diverged in: {diverged}"
