"""Knob ablation: backend × macro_step × tree_kernels on one heavy cell.

Runs the smallest ``heavy_tail`` cell (``yo×tt_e`` at the default seed)
under all eight settings, set through ``SimConfig``, in interleaved
rounds: each round runs every setting once, and the order rotates from
round to round so no setting always runs first or last.  Reports the
median and quartiles of the host CPU seconds inside ``Accelerator.run()``
per setting, and checks that every setting produces bit-identical
RunMetrics.
"""

from __future__ import annotations

import itertools
import json
import time

from repro.experiments.runner import eval_config
from repro.patterns.graphpi import benchmark_schedule
from repro.sim import backend
from repro.sim.accelerator import Accelerator

from .common import digest, quartiles
from .heavy_tail import DEFAULT_SEED, build_graph

CELL = ("yo", "tt_e")
SETTINGS = tuple(itertools.product(("pure", "cext"), (True, False), (True, False)))
ROUNDS = 5


def run_ablation() -> int:
    dataset, pattern = CELL
    graph = build_graph(dataset, DEFAULT_SEED)
    schedule = benchmark_schedule(pattern)
    times = {s: [] for s in SETTINGS}
    digests = {s: set() for s in SETTINGS}
    resolved = {}
    for r in range(ROUNDS):
        shift = r % len(SETTINGS)
        for setting in SETTINGS[shift:] + SETTINGS[:shift]:
            name, macro, tree = setting
            config = eval_config(backend=name, macro_step=macro, tree_kernels=tree)
            accel = Accelerator(graph, schedule, config, "shogun")
            resolved[setting] = backend.resolution()["resolved"]
            start = time.process_time()
            metrics = accel.run()
            times[setting].append(time.process_time() - start)
            digests[setting].add(digest(metrics.to_dict()))
            print(f"round {r + 1}/{ROUNDS} {label(setting)}: "
                  f"{times[setting][-1]:.3f} s", flush=True)
    identical = len(set().union(*digests.values())) == 1
    rows = []
    print(f"\n{dataset}×{pattern} shogun, host CPU s in run(), {ROUNDS} rounds")
    print(f"{'setting':<34} {'q1':>8} {'median':>8} {'q3':>8}")
    for setting in SETTINGS:
        q1, med, q3 = quartiles(times[setting])
        print(f"{label(setting):<34} {q1:8.3f} {med:8.3f} {q3:8.3f}"
              + ("" if resolved[setting] == setting[0]
                 else f"  (ran on {resolved[setting]})"))
        rows.append({"backend": setting[0], "macro_step": setting[1],
                     "tree_kernels": setting[2], "resolved": resolved[setting],
                     "q1_s": q1, "median_s": med, "q3_s": q3,
                     "samples_s": times[setting]})
    print(f"RunMetrics bit-identical across settings: {identical}")
    print(json.dumps({"cell": f"{dataset}:{pattern}:shogun", "rounds": ROUNDS,
                      "identical": identical, "settings": rows}))
    return 0 if identical else 1


def label(setting) -> str:
    name, macro, tree = setting
    return (f"{name}, macro {'on' if macro else 'off'}, "
            f"tree {'on' if tree else 'off'}")
