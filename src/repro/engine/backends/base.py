"""The :class:`ArtifactBackend` protocol every storage tier implements.

:class:`~repro.engine.store.ArtifactStore` is the in-memory LRU +
single-flight + dependency-cascade layer; *where persisted envelopes
live* is the backend's business.  The seam is deliberately narrow --
``open``/``get``/``put``/``delete``/``sweep``/``stats`` plus a
backend-provided lease scope -- and deliberately *accounted*: ``get``
and ``put`` return structured results carrying the corruption and
retry events the store folds into its per-kind counters, so every
backend inherits the same observability without reaching into the
store's lock.

Contract, shared by all implementations:

* a backend is never load-bearing: ``get`` answers ``None``-payload
  results for *every* failure mode (missing, damaged, I/O-dead) and
  ``put`` reports ``persisted=False`` instead of raising -- the store
  rebuilds or stays memory-only;
* only :meth:`ArtifactBackend.open` may raise, and only
  :class:`~repro.errors.BackendUnavailableError`; the store answers it
  by degrading to memory-only operation, breaker-style, with a typed
  warning counter;
* payloads are pickled bytes; the backend wraps them in the shared
  checksummed envelope (:mod:`repro.engine.backends.envelope`) on
  ``put`` and verifies/unwraps on ``get``, deleting damaged entries so
  corruption is paid for once;
* :meth:`ArtifactBackend.lease_for` scopes the cross-process
  exactly-once machinery (:class:`~repro.resilience.locks.FileLease`)
  to whatever path namespace the backend owns, or returns ``None``
  when leasing is meaningless for the medium.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Protocol, runtime_checkable

from repro.engine.keys import ArtifactKey
from repro.settings import RETRY_ATTEMPTS, read

__all__ = [
    "ArtifactBackend",
    "BackendDegradedWarning",
    "GetResult",
    "Lease",
    "PutResult",
]


class BackendDegradedWarning(UserWarning):
    """A configured backend failed to open; the store runs memory-only."""


@dataclass(frozen=True)
class GetResult:
    """Outcome of one backend read, with its accounting events.

    ``payload`` is the verified (post-envelope) pickled bytes, or
    ``None`` for any flavour of miss.  ``corrupt`` marks an entry that
    existed but failed envelope verification (it was deleted);
    ``io_retries`` counts transient-error retries spent on the way.
    """

    payload: Optional[bytes] = None
    corrupt: bool = False
    io_retries: int = 0


@dataclass(frozen=True)
class PutResult:
    """Outcome of one backend write: persisted or given up, and the
    transient-error retries spent getting there."""

    persisted: bool = True
    io_retries: int = 0


@runtime_checkable
class Lease(Protocol):
    """What the store needs from a cross-process lease, structurally.

    :class:`~repro.resilience.locks.FileLease` (file media) and
    :class:`~repro.engine.backends.remote.RemoteLease` (HTTP media)
    both satisfy this: ``acquire`` never raises and answers whether we
    are the builder, ``release`` is a best-effort no-op-on-failure, and
    the three flags tell the store what contention looked like so it
    can count it.  Every failure mode degrades to building unleased --
    a lease is advisory on any medium.
    """

    #: True if at least one backoff wait happened (contention).
    waited: bool
    #: True if a stale/expired holder's lease was taken over.
    took_over: bool
    #: True if the wait budget ran out behind a live holder.
    timed_out: bool

    def acquire(self) -> bool:
        """Try to take the lease; never raises, never waits past TTL."""

    def release(self) -> None:
        """Give the lease back (no-op unless held); never raises."""


@runtime_checkable
class ArtifactBackend(Protocol):
    """Pluggable persistence tier behind the artifact store."""

    #: Short machine-readable backend name ("local", "sqlite", ...).
    name: str

    def open(self) -> None:
        """One-shot initialisation (connect, migrate, sweep leftovers).

        The only protocol method allowed to fail: raises
        :class:`~repro.errors.BackendUnavailableError` when the medium
        cannot be used, and the store degrades to memory-only.
        """

    def get(self, key: ArtifactKey) -> GetResult:
        """The verified payload for *key*, as a :class:`GetResult`."""

    def put(self, key: ArtifactKey, payload: bytes) -> PutResult:
        """Persist *payload* (pickled bytes) under *key*, enveloped."""

    def delete(self, key: ArtifactKey) -> None:
        """Best-effort removal of *key*'s persisted entry."""

    def sweep(self) -> int:
        """Reclaim leftovers of dead writers; returns the count."""

    def stats(self) -> Dict[str, object]:
        """Backend-level counters and identity for the stats snapshot."""

    def lease_for(self, key: ArtifactKey) -> Optional[Lease]:
        """A cross-process lease scoped to *key*, or ``None``."""


class RetryPolicy:
    """Bounded retry-with-backoff shared by the concrete backends.

    Not part of the protocol -- a convenience the bundled backends
    compose so that transient-error handling (attempt budget, doubling
    backoff, injectable sleep) stays identical across media.
    """

    def __init__(
        self,
        attempts: int = RETRY_ATTEMPTS.default,
        backoff: float = 0.01,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.attempts = read(RETRY_ATTEMPTS, attempts, "RetryPolicy")
        self.backoff = backoff
        self.sleep = sleep

    def pause(self, attempt: int) -> None:
        """Back off after failed *attempt* (0-based), doubling each time."""
        self.sleep(self.backoff * (2**attempt))
