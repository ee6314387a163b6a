"""Task-tree SoA kernels: differential parity and escape correctness.

The struct-of-arrays task tree (``core/task_tree.py``) routes its hot
decisions — ``tree_select``/``tree_fill``/``tree_complete`` — through
the C backend's kernels when they are bound.  Like the macro-step core,
the kernels must be *bit-identical* to the object path (the model of
record): every accounted metric, including the scheduler's own
stall/wait counters, feeds ``repro validate`` and the golden registry.
The suite runs under the C backend and skips only when it did not
build.  Layers:

* **Kernel parity** — whole simulations, all five policies × both
  golden patterns, the C tree kernels vs the pinned object path:
  identical ``RunMetrics`` dicts.
* **Routing attribution** — the ``op_calls``/``op_escapes`` counters
  must reflect where decisions actually ran: kernels when bound,
  object path when pinned off or instrumented.
* **Instrumented fallback** — a ``TraceRecorder`` must push every
  decision down the object path (hooks keep firing) while changing no
  accounted metric.
* **Edge cells** — token exhaustion, pinned conservative mode, the
  macro-drain × tree-kernel composition with random escapes, and
  hypothesis-driven random tree geometries.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import task_tree
from repro.graph import load_dataset
from repro.patterns import benchmark_schedule
from repro.sim import SimConfig, backend, simulate
from repro.sim.accelerator import Accelerator
from repro.sim.trace import TraceRecorder
from repro.validate.oracle import ORACLE_POLICIES

#: The compiled backends (the tree kernels exist only in compiled form).
COMPILED = ("cext",)

pytestmark = pytest.mark.skipif(
    not backend.available_backends()["cext"][0],
    reason="the cext backend did not build (cffi or a C compiler missing)",
)

SCALE = 0.2
PATTERNS = ("tc", "4cl")

#: Per-event booking keeps the macro core out of the comparison; the
#: macro × tree-kernel composition gets its own cell below.
CONFIG = SimConfig(backend="cext", macro_step=False)


@pytest.fixture(autouse=True)
def _restore_backend():
    before = backend.active()
    yield
    backend._install(before)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wi", scale=SCALE)


@pytest.fixture(scope="module")
def schedules():
    return {p: benchmark_schedule(p) for p in PATTERNS}


@pytest.fixture(scope="module")
def object_metrics(graph, schedules):
    """Object-path reference metrics for every (pattern, policy) cell."""
    ref = {}
    for pattern in PATTERNS:
        for policy in ORACLE_POLICIES:
            metrics = simulate(
                graph,
                schedules[pattern],
                policy=policy,
                config=CONFIG.replace(tree_kernels=False),
            )
            ref[pattern, policy] = metrics.to_dict()
    return ref


def _trees(accel):
    return [
        pe.policy.tree for pe in accel.pes if hasattr(pe.policy, "tree")
    ]


def _sum_counter(accel, counter, key):
    return sum(getattr(t, counter)[key] for t in _trees(accel))


class TestKernelParity:
    """Kernels vs object path: byte-identical metrics on every cell."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("policy", ORACLE_POLICIES)
    def test_kernels_match_object_path(
        self, graph, schedules, object_metrics, pattern, policy
    ):
        for name in COMPILED:
            accel = Accelerator(
                graph,
                schedules[pattern],
                CONFIG.replace(backend=name, tree_kernels=True),
                policy=policy,
            )
            metrics = accel.run()
            assert metrics.to_dict() == object_metrics[pattern, policy], (
                f"backend {name} tree kernels diverged on {pattern}/{policy}"
            )
            if policy == "shogun":
                # The decisions really ran in the kernels.
                for op in ("select", "fill", "complete"):
                    assert _sum_counter(accel, "op_calls", f"{op}_kernel") > 0, (
                        f"backend {name}: {op} never took the kernel path"
                    )
                assert _sum_counter(accel, "op_escapes", "pinned_off") == 0

    def test_auto_resolution(self, graph, schedules):
        """tree_kernels=True = bound exactly when the active backend is
        compiled; False pins the object path even there."""
        accel = Accelerator(
            graph, schedules["tc"], CONFIG.replace(backend="pure"),
            policy="shogun",
        )
        assert all(t._kernel_ops is None for t in _trees(accel))
        for name in COMPILED:
            accel = Accelerator(
                graph,
                schedules["tc"],
                CONFIG.replace(backend=name),
                policy="shogun",
            )
            assert all(t._kernel_ops is not None for t in _trees(accel))
            accel = Accelerator(
                graph,
                schedules["tc"],
                CONFIG.replace(backend=name, tree_kernels=False),
                policy="shogun",
            )
            assert all(t._kernel_ops is None for t in _trees(accel))

    def test_pinned_off_routes_object(self, graph, schedules, object_metrics):
        accel = Accelerator(
            graph,
            schedules["tc"],
            CONFIG.replace(tree_kernels=False),
            policy="shogun",
        )
        metrics = accel.run()
        assert metrics.to_dict() == object_metrics["tc", "shogun"]
        for op in ("select", "fill", "complete"):
            assert _sum_counter(accel, "op_calls", f"{op}_kernel") == 0
            assert _sum_counter(accel, "op_calls", f"{op}_object") > 0
        assert _sum_counter(accel, "op_escapes", "pinned_off") > 0


class TestInstrumentedFallback:
    """Trace hooks pin the object path per call, metrics intact."""

    def test_trace_recorder_forces_object_path(
        self, graph, schedules, object_metrics
    ):
        accel = Accelerator(
            graph,
            schedules["tc"],
            CONFIG.replace(tree_kernels=True),
            policy="shogun",
        )
        recorder = TraceRecorder.attach(accel)
        metrics = accel.run()
        assert metrics.to_dict() == object_metrics["tc", "shogun"]
        # Kernels were bound but every call escaped to the object path.
        assert all(t._kernel_ops is not None for t in _trees(accel))
        for op in ("select", "fill", "complete"):
            assert _sum_counter(accel, "op_calls", f"{op}_kernel") == 0
        assert _sum_counter(accel, "op_escapes", "instrumented") > 0
        assert recorder.spans  # the hooks really observed the tasks

    def test_debug_cross_check_passes(
        self, graph, schedules, object_metrics, monkeypatch
    ):
        """REPRO_TREE_DEBUG cross-checks SoA counters vs the object view
        on every ready_count() read — kernels on, whole run clean."""
        monkeypatch.setattr(task_tree, "_DEBUG_CHECK", True)
        metrics = simulate(
            graph,
            schedules["tc"],
            policy="shogun",
            config=CONFIG.replace(tree_kernels=True),
        )
        assert metrics.to_dict() == object_metrics["tc", "shogun"]


class TestEdgeCells:
    """Token exhaustion, pinned conservative mode, macro composition."""

    def test_token_exhaustion_parity(self, graph, schedules):
        starved = CONFIG.replace(tokens_per_depth=1)
        ref = simulate(
            graph,
            schedules["tc"],
            policy="shogun",
            config=starved.replace(tree_kernels=False),
        )
        assert sum(pm.token_stalls for pm in ref.per_pe) > 0  # really starves
        for name in COMPILED:
            metrics = simulate(
                graph,
                schedules["tc"],
                policy="shogun",
                config=starved.replace(backend=name, tree_kernels=True),
            )
            assert metrics.to_dict() == ref.to_dict(), (
                f"backend {name} diverged under token exhaustion"
            )

    @pytest.mark.parametrize("conservative", (True, False))
    def test_pinned_conservative_parity(self, graph, schedules, conservative):
        pinned = CONFIG.replace(conservative_override=conservative)
        ref = simulate(
            graph,
            schedules["4cl"],
            policy="shogun",
            config=pinned.replace(tree_kernels=False),
        )
        for name in COMPILED:
            metrics = simulate(
                graph,
                schedules["4cl"],
                policy="shogun",
                config=pinned.replace(backend=name, tree_kernels=True),
            )
            assert metrics.to_dict() == ref.to_dict(), (
                f"backend {name} diverged with conservative={conservative}"
            )

    def test_macro_drain_composition(self, graph, schedules, object_metrics):
        """Macro-step booking + batch dispatch + tree kernels together
        (the production fast path) still match the all-object reference,
        with random macro escapes mixed in."""
        import random

        rng = random.Random(0xC0FFEE)
        for name in COMPILED:
            accel = Accelerator(
                graph,
                schedules["4cl"],
                CONFIG.replace(
                    backend=name, macro_step=True, tree_kernels=True
                ),
                policy="shogun",
            )
            accel.macro.fault_hook = lambda pe, task: rng.random() < 0.3
            metrics = accel.run()
            assert accel.macro.counters["injected"] > 0
            assert metrics.to_dict() == object_metrics["4cl", "shogun"], (
                f"backend {name} macro+tree-kernel composition diverged"
            )


class TestRandomGeometries:
    """Random tree shapes: parity must hold for any legal geometry."""

    @settings(max_examples=8, deadline=None)
    @given(
        bunches=st.integers(min_value=1, max_value=4),
        entries=st.integers(min_value=2, max_value=8),
        tokens=st.integers(min_value=1, max_value=8),
        conservative=st.sampled_from((None, True, False)),
    )
    def test_random_geometry_parity(
        self, graph, schedules, bunches, entries, tokens, conservative
    ):
        cell = CONFIG.replace(
            bunches_per_depth=bunches,
            bunch_entries=entries,
            tokens_per_depth=tokens,
            conservative_override=conservative,
        )
        ref = simulate(
            graph,
            schedules["tc"],
            policy="shogun",
            config=cell.replace(tree_kernels=False),
        )
        for name in COMPILED:
            metrics = simulate(
                graph,
                schedules["tc"],
                policy="shogun",
                config=cell.replace(backend=name, tree_kernels=True),
            )
            assert metrics.to_dict() == ref.to_dict(), (
                f"backend {name} diverged on geometry "
                f"({bunches},{entries},{tokens},{conservative})"
            )
