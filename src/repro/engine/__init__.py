"""The compiled engine layer: fingerprints, artifacts, sessions.

Everything Update Procedure 3.2.3 needs -- the state space ``LDB(D)``,
per-view strong analyses (Definition 2.2/§2.3), the component algebra
of Theorem 2.3.4, and per-view update procedures -- is derived data.
This package turns those derivations into *compiled, cached, shared
artifacts* behind one facade:

* :mod:`repro.engine.fingerprint` -- stable content hashes keying every
  artifact (the ``fingerprint()`` protocol);
* :mod:`repro.engine.store` -- the content-addressed
  :class:`~repro.engine.store.ArtifactStore` (in-memory LRU,
  single-flight coalescing, dependency-aware invalidation,
  hit/miss/build-time counters) composing a persistence backend;
* :mod:`repro.engine.backends` -- the
  :class:`~repro.engine.backends.ArtifactBackend` protocol and its
  implementations (pickle directory, SQLite database, remote HTTP
  artifact server), selected by
  ``REPRO_STORE_BACKEND``/``REPRO_STORE_URL``;
* :mod:`repro.engine.engine` -- the :class:`~repro.engine.engine.Engine`
  facade and its :class:`~repro.engine.engine.Session` handles, whose
  :meth:`~repro.engine.engine.Session.update` services view updates and
  returns structured :class:`~repro.engine.engine.UpdateOutcome` values.

Submodules other than :mod:`~repro.engine.fingerprint` are loaded
lazily (PEP 562): the fingerprint module is a leaf that the relational
and view layers import, so eagerly importing the engine facade here
would create an import cycle.
"""

from __future__ import annotations

from repro.engine.fingerprint import (
    FingerprintError,
    canonical_token,
    contains_transient,
    dataclass_token,
    is_content_addressed,
    stable_fingerprint,
    transient_token,
)

__all__ = [
    "FingerprintError",
    "canonical_token",
    "contains_transient",
    "dataclass_token",
    "is_content_addressed",
    "stable_fingerprint",
    "transient_token",
    "ArtifactKey",
    "ArtifactStore",
    "ArtifactBackend",
    "BackendDegradedWarning",
    "LocalDirBackend",
    "RemoteBackend",
    "SQLiteBackend",
    "STORE_BACKEND_ENV_VAR",
    "STORE_URL_ENV_VAR",
    "create_backend",
    "resolve_backend",
    "Engine",
    "Session",
    "UpdateOutcome",
    "current_engine",
    "default_engine",
    "set_default_engine",
]

_STORE_EXPORTS = {"ArtifactKey", "ArtifactStore"}
_BACKEND_EXPORTS = {
    "ArtifactBackend",
    "BackendDegradedWarning",
    "LocalDirBackend",
    "RemoteBackend",
    "SQLiteBackend",
    "STORE_BACKEND_ENV_VAR",
    "STORE_URL_ENV_VAR",
    "create_backend",
    "resolve_backend",
}
_ENGINE_EXPORTS = {
    "Engine",
    "Session",
    "UpdateOutcome",
    "current_engine",
    "default_engine",
    "set_default_engine",
}


def __getattr__(name: str) -> object:
    if name in _STORE_EXPORTS:
        from repro.engine import store

        return getattr(store, name)
    if name in _BACKEND_EXPORTS:
        from repro.engine import backends

        return getattr(backends, name)
    if name in _ENGINE_EXPORTS:
        from repro.engine import engine

        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
