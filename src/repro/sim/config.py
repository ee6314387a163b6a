"""Simulator configuration mirroring Table 3 of the paper.

All knobs the evaluation sweeps (task execution width, bunches per depth,
L1 size, PE count, conservative-mode thresholds) are plain dataclass
fields so the benchmark harness can produce every figure by constructing
modified copies via :meth:`SimConfig.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from .backend import BACKEND_NAMES


@dataclass(frozen=True)
class SimConfig:
    """Accelerator configuration (defaults = Table 3)."""

    # --- device ---------------------------------------------------------
    num_pes: int = 10
    execution_width: int = 8           # max tasks in flight per PE
    num_dividers: int = 12             # segment formation units per PE
    num_ius: int = 24                  # intersection units per PE

    # --- task tree (Shogun) ----------------------------------------------
    bunches_per_depth: int = 4
    bunch_entries: int = 8             # = execution width by default
    root_bunches: int = 2              # depth-0/1 bunches (search tree merging)
    max_pattern_depth: int = 6         # GraphPi matches up to 7-vertex patterns
    tokens_per_depth: int = 8          # address tokens = execution width

    # --- memory system ----------------------------------------------------
    cache_line_bytes: int = 64
    spm_kb: int = 16                   # per-PE scratchpad (256 lines)
    l1_kb: int = 32
    l1_assoc: int = 4
    l1_hit_cycles: int = 2
    l2_kb: int = 4096
    l2_assoc: int = 8
    l2_hit_cycles: int = 18
    l2_banks: int = 8                  # independent service ports
    l2_service_cycles: float = 1.0     # per-bank serialization per line
    noc_hop_cycles: int = 6            # PE <-> L2 one-way latency
    dram_channels: int = 4
    dram_latency_cycles: int = 110     # activate+CAS at 1 GHz core clock
    dram_service_cycles: float = 4.0   # per-line channel occupancy (BW limit)
    fetch_ports: int = 2               # parallel line fetches per task

    # --- compute model ----------------------------------------------------
    segment_elements: int = 16         # elements per divider segment
    segment_cycles: int = 16           # IU cycles per segment (1 element/cycle merge)
    decode_cycles: int = 2
    dispatch_cycles: int = 2
    spawn_cycles: int = 2
    leaf_cycles: int = 2               # report/output cost of a leaf task
    tree_access_cycles: int = 1        # task-tree SPM access per operation
    #: Tasks each pipeline unit can accept per cycle.  The paper leaves
    #: "optimizing the PE pipeline design" as future work for the
    #: tiny-task-dominated cases (wi/as-tt_e, §5.2.1); raising this
    #: implements that optimization for the ablation study.
    unit_tasks_per_cycle: float = 1.0

    # --- conservative mode (locality monitor, Table 3) --------------------
    l1_latency_threshold: float = 50.0  # cycles of average L1 access latency
    iu_util_threshold: float = 0.5      # IU utilization floor
    monitor_epoch_cycles: int = 2048
    monitor_exit_epochs: int = 2        # clear epochs before leaving the mode
    #: None = adaptive (the monitor decides); True/False pin the mode on
    #: or off for the whole run (the conservative-mode ablation).
    conservative_override: Optional[bool] = None

    # --- system scheduler --------------------------------------------------
    #: "dynamic": PEs pull the next root from the system scheduler as
    #: trees complete (§3.1 — PEs inform the scheduler on completion);
    #: "static": all roots are dealt round-robin to PEs up front.
    root_dispatch: str = "dynamic"

    # --- accelerator optimizations (§4) ------------------------------------
    enable_splitting: bool = False
    enable_merging: bool = False
    lb_check_interval: int = 20000      # system-scheduler imbalance polling
    lb_idle_fraction: float = 0.5       # "most PEs have finished"
    lb_max_helpers: int = 4             # idle PEs granted per busy PE
    #: Deepest task depth whose candidate range may be split off.  The
    #: paper splits only the depth-0 task's range (limit 0); the scaled
    #: datasets drain root ranges early, so the default also allows
    #: depth-1 tasks — same messages, prefix one vertex longer (see
    #: DESIGN.md substitutions).
    split_depth_limit: int = 1
    merge_iu_util_ceiling: float = 0.5  # FU util must be below this to merge
    merge_l1_latency_ceiling: float = 25.0
    merge_mem_latency_ceiling: float = 60.0

    # --- misc ---------------------------------------------------------------
    max_cycles: int = 2_000_000_000     # runaway guard
    #: Kernel backend for the simulator hot path: "auto", "pure" or
    #: "cext".  None defers to ``REPRO_BACKEND`` / auto selection; an
    #: unavailable backend falls back gracefully (see
    #: ``repro.sim.backend``).  All backends produce byte-identical
    #: metrics, so this is a speed knob, not a model knob.
    backend: Optional[str] = None
    #: Macro-step engine core: book a whole task pipeline in one
    #: compiled call, escaping to the per-event Python path on cache
    #: misses, multi-round tasks and instrumentation.  On (None or
    #: True) uses the compiled core wherever the active backend is
    #: compiled; False pins the per-event model of record.  The default
    #: stays None rather than True because config fingerprints (every
    #: field's value, as ``perfbench/digests.json`` keys cells) must not
    #: move.  Both settings produce byte-identical metrics, so like
    #: ``backend`` this is a speed knob, not a model knob.
    macro_step: Optional[bool] = None
    #: Task-tree scheduler kernels: run the hot tree decisions
    #: (``tree_select``/``tree_fill``/``tree_complete``) as compiled
    #: calls over the tree's struct-of-arrays state.  On (None or True,
    #: None kept as the default for the same reason as ``macro_step``)
    #: uses them wherever the active backend is compiled; False pins the
    #: object path (the model of record).  Both settings produce
    #: byte-identical metrics: a speed knob, not a model knob.
    tree_kernels: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.num_pes < 1:
            raise ConfigError("num_pes must be >= 1")
        if self.execution_width < 1:
            raise ConfigError("execution_width must be >= 1")
        if self.bunch_entries < 1 or self.bunches_per_depth < 1:
            raise ConfigError("task tree dimensions must be >= 1")
        if self.tokens_per_depth < 1:
            raise ConfigError("tokens_per_depth must be >= 1")
        for field_name in ("l1_kb", "l2_kb", "spm_kb", "cache_line_bytes"):
            if getattr(self, field_name) <= 0:
                raise ConfigError(f"{field_name} must be positive")
        if self.l1_assoc < 1 or self.l2_assoc < 1:
            raise ConfigError("associativity must be >= 1")
        if self.segment_elements < 1 or self.segment_cycles < 1:
            raise ConfigError("segment model values must be >= 1")
        if self.num_ius < 1 or self.num_dividers < 1:
            raise ConfigError("FU counts must be >= 1")
        if self.root_dispatch not in ("static", "dynamic"):
            raise ConfigError("root_dispatch must be 'static' or 'dynamic'")
        if self.conservative_override not in (None, True, False):
            raise ConfigError("conservative_override must be None, True or False")
        if self.unit_tasks_per_cycle <= 0:
            raise ConfigError("unit_tasks_per_cycle must be positive")
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ConfigError(
                f"backend must be None or one of {BACKEND_NAMES}"
            )
        if self.macro_step not in (None, True, False):
            raise ConfigError("macro_step must be None, True or False")
        if self.tree_kernels not in (None, True, False):
            raise ConfigError("tree_kernels must be None, True or False")

    # ------------------------------------------------------------------
    def replace(self, **changes) -> "SimConfig":
        """A modified copy (convenience over ``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    @property
    def l1_lines(self) -> int:
        """L1 capacity in cache lines."""
        return self.l1_kb * 1024 // self.cache_line_bytes

    @property
    def l2_lines(self) -> int:
        """L2 capacity in cache lines."""
        return self.l2_kb * 1024 // self.cache_line_bytes

    @property
    def spm_lines(self) -> int:
        """Scratchpad capacity in cache lines."""
        return self.spm_kb * 1024 // self.cache_line_bytes

    @property
    def elements_per_line(self) -> int:
        """Vertex ids per cache line (16 for 64-byte lines)."""
        return self.cache_line_bytes // 4

    def task_tree_entries(self) -> int:
        """Total task-tree entries (178 with Table 3 defaults).

        Depth 0 has ``root_bunches`` single-entry bunches; depth 1 has
        ``root_bunches`` full bunches; depths 2..max use
        ``bunches_per_depth`` full bunches.
        """
        deep = (self.max_pattern_depth - 1) * self.bunches_per_depth * self.bunch_entries
        return self.root_bunches * 1 + self.root_bunches * self.bunch_entries + deep


#: The paper's baseline configuration (Table 3).
DEFAULT_CONFIG = SimConfig()
