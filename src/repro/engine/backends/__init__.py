"""Pluggable persistence backends for the artifact store.

The :class:`~repro.engine.store.ArtifactStore` owns memoization policy
(LRU, single-flight, dependency cascades, counters); *where persisted
envelopes live* is delegated to an
:class:`~repro.engine.backends.base.ArtifactBackend`:

* :class:`~repro.engine.backends.localdir.LocalDirBackend` -- one
  enveloped pickle file per artifact in a directory;
* :class:`~repro.engine.backends.sqlitedb.SQLiteBackend` -- one shared
  SQLite database (WAL mode, ``BEGIN IMMEDIATE`` writes,
  fingerprint-sharded namespace) safe for a fleet of processes on one
  file or NFS mount;
* :class:`~repro.engine.backends.remote.RemoteBackend` -- a shared
  :mod:`repro.artifactd` HTTP server, safe for a fleet of processes on
  *different hosts*, with deadlines, jittered retry, a circuit
  breaker, and a local write-behind spill tier for outages.

Selection: pass a backend to ``Engine(backend=...)`` /
``ArtifactStore(backend=...)``, or configure the environment --
``REPRO_STORE_BACKEND=local|sqlite|remote`` names the implementation
and ``REPRO_STORE_URL`` its location (a directory for ``local``, a
database file for ``sqlite``, an ``http(s)://`` URL for ``remote``).
Explicit constructor arguments beat the environment.  A backend that
fails to *open* degrades the store to memory-only with a typed warning
counter -- persistence is never load-bearing.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.engine.backends.base import (
    ArtifactBackend,
    BackendDegradedWarning,
    GetResult,
    PutResult,
)
from repro.engine.backends.envelope import (
    ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
    HEADER,
    unwrap_payload,
    wrap_payload,
)
from repro.engine.backends.localdir import LocalDirBackend
from repro.engine.backends.remote import RemoteBackend
from repro.engine.backends.sqlitedb import SQLiteBackend
from repro.errors import BackendConfigError

__all__ = [
    "ArtifactBackend",
    "BackendDegradedWarning",
    "ENVELOPE_MAGIC",
    "ENVELOPE_VERSION",
    "GetResult",
    "HEADER",
    "LocalDirBackend",
    "RemoteBackend",
    "SQLiteBackend",
    "STORE_BACKEND_ENV_VAR",
    "STORE_URL_ENV_VAR",
    "create_backend",
    "resolve_backend",
    "unwrap_payload",
    "wrap_payload",
]

#: Environment variable naming the backend implementation.
STORE_BACKEND_ENV_VAR = "REPRO_STORE_BACKEND"

#: Environment variable locating it (directory or database file).
STORE_URL_ENV_VAR = "REPRO_STORE_URL"

_BACKEND_NAMES = ("local", "sqlite", "remote")


def create_backend(
    name: str, url: str, io_attempts: int = 3
) -> ArtifactBackend:
    """Construct (but do not open) the backend called *name* at *url*.

    Raises :class:`~repro.errors.BackendConfigError` eagerly for an
    unknown name or a missing URL -- a typo'd selection must not
    silently mean "no persistence".
    """
    normalized = name.strip().lower()
    if normalized not in _BACKEND_NAMES:
        raise BackendConfigError(
            f"unknown artifact backend {name!r}; expected one of"
            f" {_BACKEND_NAMES}"
        )
    if not url:
        locations = {
            "local": " cache directory",
            "sqlite": " database file path",
            "remote": "n http(s):// artifact-server URL",
        }
        raise BackendConfigError(
            f"artifact backend {normalized!r} needs a location: set"
            f" {STORE_URL_ENV_VAR} (or pass a URL) to a"
            + locations[normalized]
        )
    if normalized == "local":
        return LocalDirBackend(url, io_attempts=io_attempts)
    if normalized == "remote":
        return RemoteBackend(url, io_attempts=io_attempts)
    return SQLiteBackend(url, io_attempts=io_attempts)


def resolve_backend() -> Optional[ArtifactBackend]:
    """The backend ``REPRO_STORE_BACKEND``/``REPRO_STORE_URL`` ask for,
    or ``None`` (memory-only) when no backend is named.

    Callers that pin persistence -- tests staying hermetic under any
    ambient environment -- pass a backend instead.
    """
    name = os.environ.get(STORE_BACKEND_ENV_VAR)
    if name is None or not name.strip():
        return None
    return create_backend(name, os.environ.get(STORE_URL_ENV_VAR, ""))
