"""Serving-suite fixtures: a hermetic environment and one service."""

from __future__ import annotations

import pytest

from repro.engine.engine import Engine
from repro.serving.service import chain_service


@pytest.fixture(autouse=True)
def hermetic_serving_env(monkeypatch):
    """Serving tests assert exact admission behaviour; ambient knobs
    (CI matrix backends, operator-tuned capacities) must not leak in."""
    for var in (
        "REPRO_SERVER_MAX_INFLIGHT",
        "REPRO_SERVER_QUEUE_DEPTH",
        "REPRO_SERVER_DRAIN_MS",
        "REPRO_SERVER_DEADLINE_MS",
        "REPRO_STORE_BACKEND",
        "REPRO_STORE_URL",
        "REPRO_BREAKER_THRESHOLD",
        "REPRO_BREAKER_COOLDOWN_MS",
    ):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture(scope="session")
def spec():
    """The default served universe (compiled scenario, reused)."""
    return chain_service()
