"""Shared fixtures for the benchmark suite.

Scenario construction (state-space enumeration, component-algebra
discovery) is excluded from the timed regions by building everything
once per session here.

A ``pytest_sessionfinish`` hook persists every benchmark run to
``BENCH_kernel.json`` at the repo root -- per-bench wall-clock, any
``extra_info`` the bench recorded (notably ``ldb``, the state-space
size), and the active kernel mode.  The file is merged across runs and
keyed by kernel mode, so running the suite under the default kernel and
under ``REPRO_KERNEL=naive`` yields side-by-side baselines.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.components import ComponentAlgebra
from repro.kernel.config import kernel_mode
from repro.workloads.scenarios import (
    abcd_chain_small,
    spj_inverse_scenario,
    spj_mini_scenario,
    spj_paper_instance,
    two_unary_scenario,
)


@pytest.fixture(scope="session")
def two_unary():
    return two_unary_scenario()


@pytest.fixture(scope="session")
def spj_paper():
    return spj_paper_instance()


@pytest.fixture(scope="session")
def spj_inverse():
    return spj_inverse_scenario()


@pytest.fixture(scope="session")
def spj_mini():
    return spj_mini_scenario()


@pytest.fixture(scope="session")
def small_chain():
    return abcd_chain_small()


@pytest.fixture(scope="session")
def small_space(small_chain):
    return small_chain.state_space()


@pytest.fixture(scope="session")
def small_algebra(small_chain, small_space):
    return ComponentAlgebra.discover(
        small_space, small_chain.all_component_views()
    )


BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


def pytest_sessionfinish(session, exitstatus):
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    mode = kernel_mode()
    try:
        payload = json.loads(BENCH_JSON.read_text())
    except (OSError, ValueError):
        payload = {}
    if not isinstance(payload, dict):
        payload = {}
    entries = payload.setdefault(mode, {})
    for meta in bench_session.benchmarks:
        stats = meta.stats
        entry = {
            "seconds": stats.mean,
            "min_seconds": stats.min,
            "median_seconds": stats.median,
            "rounds": getattr(stats, "rounds", None),
            "kernel": mode,
        }
        entry.update(meta.extra_info)
        entries[meta.fullname] = entry
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
