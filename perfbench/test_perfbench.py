"""Self-tests of the benchmark's helpers.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import common  # noqa: E402
from perfbench.common import Span  # noqa: E402


# ----------------------------------------------------------------------
# tail-percentile rule
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (3, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = common.tail_percentile(n)
    assert p == expected
    if p is not None:
        assert n - common.rank(p, n) >= common.TAIL_MIN_BEYOND


def test_tail_uses_the_per_pass_count():
    values = list(range(1, 121))
    value, label = common.tail(values, per_pass=120)
    assert label == "p90" and value == 108
    # Pooling more passes never changes the percentile.
    _, label = common.tail(values * 3, per_pass=120)
    assert label == "p90"


def test_tail_falls_back_to_max_and_says_so():
    value, label = common.tail([5.0, 1.0, 3.0], per_pass=3)
    assert value == 5.0 and label.startswith("max")


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [
        Span(0, None, "cell", 0.0, 10.0),
        Span(1, 0, "sim.build", 1.0, 2.0),
        Span(2, 0, "sim.run", 2.0, 9.0),
    ]
    own = common.self_times(spans)
    assert own == {0: pytest.approx(2.0), 1: 1.0, 2: 7.0}


def test_self_time_counts_overlapping_children_once():
    # Two pool workers under one sweep span, overlapping in time.
    spans = [
        Span(0, None, "orchestrator.run_cells", 0.0, 10.0),
        Span(1, 0, "sim.run", 1.0, 6.0),
        Span(2, 0, "sim.run", 4.0, 8.0),
        Span(3, 0, "sim.run", 9.5, 12.0),  # clipped at the parent's end
    ]
    own = common.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 7.0 - 0.5)
    by_name = common.self_time_by_name(spans)
    assert by_name["sim.run"] == pytest.approx(5.0 + 4.0 + 2.5)


def test_tracer_nests_and_ignores_when_disabled():
    tracer = common.Tracer(True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0]
    off = common.Tracer(False)
    with off.span("outer"):
        pass
    assert off.spans == []


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------

METRICS = {"policy": "shogun", "cycles": 1234.5, "matches": 42,
           "per_pe": [{"pe_id": 0, "l1_avg_latency": 2.000000001}]}


def test_output_check_passes_correct_output():
    assert common.check_output(METRICS, 42, common.digest(METRICS)) == []


def test_output_check_fires_on_a_planted_wrong_count():
    wrong = dict(METRICS, matches=41)
    problems = common.check_output(wrong, 42, None)
    assert len(problems) == 1 and "matches" in problems[0]


def test_output_check_fires_on_a_planted_wrong_metric():
    wrong = json.loads(json.dumps(METRICS))
    wrong["per_pe"][0]["l1_avg_latency"] = 2.000000002
    problems = common.check_output(wrong, 42, common.digest(METRICS))
    assert problems == ["RunMetrics digest differs from the recorded one"]


def test_seed_without_digest_checks_the_count_only():
    assert common.check_output(dict(METRICS, cycles=1.0), 42, None) == []


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------

def test_same_seed_same_graph():
    import numpy as np

    from perfbench.heavy_tail import build_graph

    a, b = build_graph("yo", 5), build_graph("yo", 5)
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    c = build_graph("yo", 6)
    assert not np.array_equal(a.indices, c.indices)
    assert np.array_equal(np.sort(a.degrees), np.sort(c.degrees))  # degrees kept


def test_same_seed_same_cell_sample():
    from perfbench.grid_sweep import SHORT_PAIRS, sample

    assert sample(3) == sample(3)
    assert sample(3) != sample(4)
    pairs = {(d, p) for d, p, policy, _ in sample(3) if policy == "fingers"}
    assert len(pairs) == 28 and pairs <= set(SHORT_PAIRS)


def test_same_seed_same_request_stream():
    from perfbench.serve_mixed import PER_CLIENT, stream

    a = stream(9)
    assert a == stream(9)
    assert a != stream(10)
    for script in a:
        kinds = [item[0] for item in script]
        assert {k: kinds.count(k) for k in PER_CLIENT} == PER_CLIENT
        seen = set()
        for item in script:  # a repeat only asks for a cell already returned
            if item[0] == "repeat":
                assert item[1] in seen
            seen.add(item[1])
    # Both clients meet at the duplicate barriers in the same order, after
    # the same number of requests.
    dups = [[(i, item[2]) for i, item in enumerate(script) if item[0] == "dup"]
            for script in a]
    assert dups[0] == dups[1] == sorted(dups[0])
    # Every pass computes the whole pool once.
    computed = [item[1] for script in a for item in script if item[0] == "new"]
    computed += [item[1] for item in a[0] if item[0] == "dup"]
    assert sorted(computed) == sorted(set(computed)) == sorted(universe())


def universe():
    from perfbench.serve_mixed import PAIRS, POLICIES

    return [(d, p, policy) for d, p in PAIRS for policy in POLICIES]


# ----------------------------------------------------------------------
# the benchmark's declaration matches what it prints
# ----------------------------------------------------------------------

def test_benchmark_json_matches_the_metric_lists():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
