"""Record the RunMetrics digest of every cell the workloads can draw.

The digests pin the output of the program at the commit that records
them: a later run whose cell hashes differently has changed what the
simulator computes, and the benchmark counts that cell as failed.  They
cover every cell of ``grid_sweep``'s and ``serve_mixed``'s pools (those
cells do not depend on the seed) and ``heavy_tail``'s cells at the
default seed, whose graphs are the registered stand-ins.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.runner import eval_config
from repro.orchestrator.cells import CellSpec, cell_key
from repro.orchestrator.scheduler import Orchestrator

from . import grid_sweep, heavy_tail, serve_mixed
from .common import digest
from .layers import cell_id


def universe():
    cells = [(d, p, "shogun", ()) for d, p in heavy_tail.CELLS]
    cells += [(d, p, policy, ()) for d, p in grid_sweep.SHORT_PAIRS
              for policy in ("fingers", "shogun")]
    cells += list(grid_sweep.EXTRAS)
    cells += [(d, p, policy, ()) for d, p in serve_mixed.PAIRS
              for policy in serve_mixed.POLICIES]
    specs = {}
    for dataset, pattern, policy, overrides in cells:
        spec = CellSpec(dataset, pattern, policy, heavy_tail.SCALE,
                        eval_config(**dict(overrides)))
        specs[cell_key(spec)] = spec
    return specs


def record_digests(path: Path) -> int:
    specs = universe()
    results, failures = Orchestrator(2).run_cells(specs)
    if failures:
        for key, error in failures.items():
            print(f"FAILED {specs[key].label()}: {error.get('message')}")
        return 1
    digests = {
        cell_id(s.dataset, s.pattern, s.policy, s.config): digest(results[k].to_dict())
        for k, s in specs.items()
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {path.name}")
    return 0
