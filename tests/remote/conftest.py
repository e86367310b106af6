"""Fixtures for the remote artifact tier: a live in-process server.

Every test in this package runs against a real :class:`ArtifactServer`
bound to an ephemeral port -- the wire, the framing, and the threading
are the genuine article, not mocks.  The chaos tests interpose a
:class:`~repro.resilience.chaosproxy.ChaosProxy` between client and
server, so failures are injected *under* the client where it cannot
tell them from a flaky network.
"""

from __future__ import annotations

import pytest

from repro.artifactd import ArtifactServer
from repro.engine.backends.remote import RemoteBackend
from repro.resilience.faults import inject

#: Every knob the remote tier reads; tests must not inherit ambient ones.
REMOTE_ENV_VARS = (
    "REPRO_STORE_BACKEND",
    "REPRO_STORE_URL",
    "REPRO_REMOTE_TIMEOUT_MS",
    "REPRO_REMOTE_SPILL_DIR",
    "REPRO_CACHE_LOCK_TTL_MS",
)


@pytest.fixture(autouse=True)
def hermetic_env(monkeypatch):
    """Strip ambient knobs and any CI-wide fault plan."""
    for var in REMOTE_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    with inject(None):
        yield


@pytest.fixture
def artifactd():
    """A live artifact server on an ephemeral port."""
    with ArtifactServer() as server:
        yield server


def make_remote(
    url: str,
    spill_dir=None,
    io_attempts: int = 3,
    timeout_ms: float = 2_000.0,
    threshold: int = 3,
    cooldown_ms: float = 60_000.0,
) -> RemoteBackend:
    """A remote backend tuned for tests: tiny backoff, explicit knobs."""
    backend = RemoteBackend(
        url,
        io_attempts=io_attempts,
        io_backoff=0.001,
        timeout_ms=timeout_ms,
        spill_dir=str(spill_dir) if spill_dir is not None else None,
        threshold=threshold,
        cooldown_ms=cooldown_ms,
    )
    return backend
