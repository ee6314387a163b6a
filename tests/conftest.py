"""Shared fixtures: small deterministic graphs, schedules and configs."""

from __future__ import annotations

import os

import pytest

from repro.graph import CSRGraph, erdos_renyi_gnm, from_edges, powerlaw_configuration
from repro.patterns import benchmark_schedule
from repro.sim import SimConfig


def live_segment_names() -> "set[str]":
    """Names of every live ``repro-arena-*`` shared-memory segment.

    No sweep, daemon, worker death or chaos scenario may leave one
    behind: the suites assert against this helper, which mirrors the CI
    jobs' ``ls /dev/shm/repro-arena-*`` check.
    """
    try:
        return {
            name for name in os.listdir("/dev/shm")
            if name.startswith("repro-arena-")
        }
    except OSError:  # no /dev/shm on this platform
        return set()


@pytest.fixture(scope="session")
def tiny_graph() -> CSRGraph:
    """A 5-vertex graph matching Figure 1 of the paper."""
    return from_edges(
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4), (1, 4)],
        name="fig1",
    )


@pytest.fixture(scope="session")
def small_er() -> CSRGraph:
    """A 30-vertex random graph dense enough to contain every pattern."""
    return erdos_renyi_gnm(30, 120, seed=7, name="er30")


@pytest.fixture(scope="session")
def medium_er() -> CSRGraph:
    """A 60-vertex random graph for slightly larger integration tests."""
    return erdos_renyi_gnm(60, 240, seed=11, name="er60")


@pytest.fixture(scope="session")
def skewed_graph() -> CSRGraph:
    """A small skewed graph (hub-heavy) for locality/balance tests."""
    return powerlaw_configuration(
        80, target_avg_degree=6.0, exponent=1.9, seed=3, name="skew80"
    )


@pytest.fixture(scope="session")
def sched_tc():
    return benchmark_schedule("tc")


@pytest.fixture(scope="session")
def sched_4cl():
    return benchmark_schedule("4cl")


@pytest.fixture(scope="session")
def sched_tt_e():
    return benchmark_schedule("tt_e")


@pytest.fixture(scope="session")
def sched_4cyc_v():
    return benchmark_schedule("4cyc_v")


@pytest.fixture()
def tiny_config() -> SimConfig:
    """A 2-PE configuration that keeps unit-test simulations fast."""
    return SimConfig(num_pes=2, l1_kb=4, l2_kb=64, spm_kb=8)
