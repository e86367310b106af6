"""The content-addressed artifact store behind the engine facade.

Every structure the engine derives -- state spaces, strong analyses,
component algebras, update procedures -- is an *artifact*: a pure
function of fingerprintable inputs plus the active kernel mode.
:class:`ArtifactStore` memoizes them under :class:`ArtifactKey`\\ s with

* an in-memory LRU (bounded by ``max_entries``),
* an optional **persistence backend**
  (:mod:`repro.engine.backends`) -- any :class:`ArtifactBackend`,
  passed explicitly or selected via
  ``REPRO_STORE_BACKEND``/``REPRO_STORE_URL`` -- used only for
  artifacts whose inputs are content-addressed,
* dependency-aware invalidation (dropping a space drops the analyses,
  algebras, and procedures derived from it -- in memory *and* in the
  backend, so stale artifacts cannot resurrect), and
* per-kind counters (hits, misses, builds, corrupt entries, I/O
  retries, degradations, deadline hits, coalesced builds, lease
  contention) for the harness' ``--stats`` report.

The store is the *composition* layer: memoization policy, counters,
and concurrency control live here and are identical over every
backend.  Envelope integrity, atomic writes, transient-error retries,
and lease scoping live behind the backend seam, so a damaged entry in
a SQLite row and a damaged entry in a cache file read as the same
silent miss.  A backend that fails to **open** degrades the store to
memory-only operation -- counted, warned about
(:class:`~repro.engine.backends.base.BackendDegradedWarning`), and
never fatal: a cache must never be load-bearing.

The store is safe under concurrent use, across threads *and*
processes:

* one :class:`threading.RLock` guards the LRU, the dependency maps,
  and every counter; builders always run *outside* it (lock ordering:
  the store lock is innermost and never held across user code);
* an in-process **single-flight registry**: N threads requesting the
  same missing key trigger exactly one build -- the leader builds, the
  rest block on its result (or re-raise its typed error) and count as
  ``coalesced_builds``;
* a **cross-process advisory lease**
  (:class:`~repro.resilience.locks.FileLease`), scoped by the backend,
  around each persisted build, so a second process waits for the
  winner and then reads its envelope from the backend instead of
  rebuilding (``lease_waits`` / ``lease_takeovers`` /
  ``lease_timeouts`` counters); a dead holder's lease is taken over
  at once and a silent one after ``REPRO_CACHE_LOCK_TTL_MS``, and the
  local-dir backend's ``open()`` sweeps dead writers' temp files
  one-shot per path.

The store is deliberately ignorant of *what* it caches: builders are
supplied by the :class:`~repro.engine.engine.Engine`, which owns the
mapping from semantic operations to keys and dependencies.
"""

from __future__ import annotations

import pickle
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from repro.engine.backends import (
    ArtifactBackend,
    BackendDegradedWarning,
    resolve_backend,
)
from repro.engine.keys import ArtifactKey
from repro.settings import MAX_ENTRIES, read

__all__ = [
    "ArtifactKey",
    "ArtifactStore",
    "KindStats",
]


@dataclass
class KindStats:
    """Counters for one artifact kind."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    builds: int = 0
    build_seconds: float = 0.0
    evictions: int = 0
    persist_failures: int = 0
    #: Persisted entries rejected by the integrity envelope (or the
    #: unpickler) and rebuilt.
    corrupt_entries: int = 0
    #: Transient I/O-error retries on backend load/save.
    io_retries: int = 0
    #: Bulk-kernel derivations retried under the naive kernel.
    degradations: int = 0
    #: Derivations cancelled by an :class:`ExecutionGuard`.
    deadline_hits: int = 0
    #: Requests that joined another thread's in-flight build instead of
    #: building (the single-flight registry at work).
    coalesced_builds: int = 0
    #: Lease acquisitions that had to wait behind another process.
    lease_waits: int = 0
    #: Stale leases (dead/expired holder) taken over.
    lease_takeovers: int = 0
    #: Lease waits that gave up (TTL) and built unleased.
    lease_timeouts: int = 0

    def memory_dict(self) -> Dict[str, float]:
        """The memoization-layer counters (LRU + single-flight)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "build_seconds": round(self.build_seconds, 6),
            "evictions": self.evictions,
            "coalesced_builds": self.coalesced_builds,
            "degradations": self.degradations,
            "deadline_hits": self.deadline_hits,
        }

    def backend_dict(self) -> Dict[str, float]:
        """The persistence-tier counters."""
        return {
            "disk_hits": self.disk_hits,
            "persist_failures": self.persist_failures,
            "corrupt_entries": self.corrupt_entries,
            "io_retries": self.io_retries,
        }

    def lease_dict(self) -> Dict[str, float]:
        """The cross-process lease-contention counters."""
        return {
            "lease_waits": self.lease_waits,
            "lease_takeovers": self.lease_takeovers,
            "lease_timeouts": self.lease_timeouts,
        }


@dataclass
class _Entry:
    value: object
    dependencies: Tuple["ArtifactKey", ...] = ()


class _InFlight:
    """One in-progress build: followers block on :attr:`event`."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.error: Optional[BaseException] = None


@dataclass
class ArtifactStore:
    """LRU + pluggable persistence backend, keyed by fingerprints."""

    max_entries: int = MAX_ENTRIES.default
    #: The persistence tier, with its own retry and backoff settings;
    #: ``None`` resolves from the environment (and stays ``None`` for
    #: memory-only stores).  An explicit backend pins persistence to it
    #: whatever the environment says.
    backend: Optional[ArtifactBackend] = None
    _entries: "OrderedDict[ArtifactKey, _Entry]" = field(
        default_factory=OrderedDict, repr=False
    )
    _dependents: Dict[ArtifactKey, Set[ArtifactKey]] = field(
        default_factory=dict, repr=False
    )
    _stats: Dict[str, KindStats] = field(default_factory=dict, repr=False)
    #: Keys currently being built, for in-process single-flight.
    _inflight: Dict[ArtifactKey, _InFlight] = field(
        default_factory=dict, repr=False
    )
    #: Guards ``_entries``/``_dependents``/``_stats``/``_inflight``.
    #: Innermost lock: never held while a builder or backend I/O runs.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False
    )
    #: Bumped by every :meth:`invalidate`; see :attr:`generation`.
    _generation: int = field(default=0, repr=False)
    #: Configured backends that failed to open (0 or 1; breaker-style
    #: typed warning counter surfaced in ``stats()["backend"]``).
    _backend_open_failures: int = field(default=0, repr=False)
    _backend_open_error: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        read(MAX_ENTRIES, self.max_entries, "ArtifactStore")
        if self.backend is None:
            # May raise BackendConfigError -- eagerly, on purpose: a
            # typo'd selection knob must not silently disable
            # persistence.
            self.backend = resolve_backend()
        if self.backend is not None:
            self._open_backend()

    def _open_backend(self) -> None:
        """Open the configured backend; degrade to memory-only on failure."""
        backend = self.backend
        if backend is None:  # pragma: no cover -- caller checked
            return
        try:
            backend.open()
        except Exception as exc:
            # Persistence is never load-bearing: a backend that cannot
            # open (unreachable file, corrupt database, injected
            # fault) downgrades the store to memory-only -- counted,
            # warned about, and typed; never fatal.
            self._backend_open_failures = 1
            self._backend_open_error = f"{type(exc).__name__}: {exc}"
            self.backend = None
            warnings.warn(
                f"artifact backend {backend.name!r} failed to open"
                f" ({self._backend_open_error}); continuing without"
                " persistence",
                BackendDegradedWarning,
                stacklevel=3,
            )

    # -- core protocol -----------------------------------------------------------

    def get_or_build(
        self,
        key: ArtifactKey,
        builder: Callable[[], object],
        dependencies: Iterable[ArtifactKey] = (),
        persist: bool = False,
    ) -> object:
        """The artifact for *key*, from memory, the backend, or *builder*.

        *dependencies* are the keys this artifact was derived from:
        invalidating any of them invalidates this artifact too.
        *persist* opts the artifact into the persistence backend;
        callers must only set it for content-addressed inputs
        (transient fingerprints are meaningless in other processes).

        Concurrent callers coalesce: the first thread to miss becomes
        the *leader* and builds; every other thread requesting the same
        key blocks until the leader finishes, then shares its value --
        or re-raises its (typed) error, so a failing build fails every
        waiter closed rather than retrying N times.
        """
        with self._lock:
            stats = self._stats.setdefault(key.kind, KindStats())
            entry = self._entries.get(key)
            if entry is not None:
                stats.hits += 1
                self._entries.move_to_end(key)
                return entry.value
            flight = self._inflight.get(key)
            if flight is None:
                flight = _InFlight()
                self._inflight[key] = flight
                stats.misses += 1
                leader = True
            else:
                stats.coalesced_builds += 1
                leader = False
        if not leader:
            flight.event.wait()
            if flight.error is not None:
                # reprolint: disable=RL001 -- re-raise of the single-flight leader's recorded error, already typed at the build site
                raise flight.error
            return flight.value
        try:
            value = self._service_miss(
                key, builder, tuple(dependencies), persist, stats
            )
            flight.value = value
            return value
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()

    def _service_miss(
        self,
        key: ArtifactKey,
        builder: Callable[[], object],
        dependencies: Tuple[ArtifactKey, ...],
        persist: bool,
        stats: KindStats,
    ) -> object:
        """Leader path: backend, then (leased) build; insert on success."""
        value = self._load_from_backend(key, stats) if persist else None
        if value is not None:
            with self._lock:
                stats.disk_hits += 1
        else:
            value = self._build(key, builder, persist, stats)
        with self._lock:
            self._insert(key, _Entry(value, dependencies))
        return value

    def _build(
        self,
        key: ArtifactKey,
        builder: Callable[[], object],
        persist: bool,
        stats: KindStats,
    ) -> object:
        """Run *builder*, under a cross-process lease when persisting.

        The lease makes a second *process* wait for the winner and read
        its envelope from the backend rather than duplicate the build;
        it is advisory, so every lease failure degrades to building
        unleased.
        """
        backend = self.backend if persist else None
        if backend is None:
            return self._timed_build(builder, stats)
        lease = backend.lease_for(key)
        if lease is None:
            value = self._timed_build(builder, stats)
            self._save_to_backend(key, value, stats)
            return value
        lease.acquire()
        try:
            with self._lock:
                if lease.waited:
                    stats.lease_waits += 1
                if lease.took_over:
                    stats.lease_takeovers += 1
                if lease.timed_out:
                    stats.lease_timeouts += 1
            # Decisive re-check *inside* the lease: a winner saves
            # before releasing, so a sibling that finished this very
            # build -- whether we waited behind it or arrived just
            # after its release -- is always seen here, and the build
            # below is exactly-once fleet-wide (lease failures aside).
            value = self._load_from_backend(key, stats)
            if value is not None:
                with self._lock:
                    stats.disk_hits += 1
                return value
            value = self._timed_build(builder, stats)
            self._save_to_backend(key, value, stats)
            return value
        finally:
            lease.release()

    def _timed_build(
        self, builder: Callable[[], object], stats: KindStats
    ) -> object:
        started = time.perf_counter()
        value = builder()
        elapsed = time.perf_counter() - started
        with self._lock:
            stats.builds += 1
            stats.build_seconds += elapsed
        return value

    def ensure(
        self,
        key: ArtifactKey,
        value: object,
        dependencies: Iterable[ArtifactKey] = (),
    ) -> object:
        """Register an already-built value without touching the counters.

        Used to anchor aliases (a space reached via enumeration
        parameters also lives under its canonical content key); returns
        the previously registered value if one exists.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry.value
            self._insert(key, _Entry(value, tuple(dependencies)))
            return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._entries

    # -- invalidation ------------------------------------------------------------

    @property
    def generation(self) -> int:
        """How many :meth:`invalidate` calls this store has run.

        A caller that keeps artifacts past the lookup (a session's bound
        procedures) records the generation it fetched them under and
        drops them once it changes.  The bump happens under the store
        lock together with the cascade, so a lookup that reads the same
        generation before and after it ran cannot have returned an
        artifact that an invalidation has since dropped.
        """
        return self._generation

    def invalidate(self, key: ArtifactKey) -> int:
        """Drop *key* and everything derived from it; return the count.

        Persisted entries are deleted for every visited key -- including
        keys already evicted from memory -- so a stale artifact cannot
        resurrect from the backend after its inputs were invalidated.
        The store lock is held across the whole cascade walk, so a
        racing build cannot re-insert a dependent mid-invalidation and
        leave the dependency maps half-torn.  Every call bumps
        :attr:`generation`, whatever it dropped.
        """
        with self._lock:
            self._generation += 1
            dropped = 0
            frontier = [key]
            while frontier:
                current = frontier.pop()
                if current in self._entries:
                    del self._entries[current]
                    dropped += 1
                self._delete_persisted(current)
                frontier.extend(self._dependents.pop(current, ()))
            return dropped

    def clear(self) -> None:
        """Drop every in-memory entry (the backend is untouched)."""
        with self._lock:
            self._entries.clear()
            self._dependents.clear()

    # -- statistics --------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, object]]:
        """A deep-copied, namespaced snapshot of the store's counters.

        Three namespaces, by layer::

            {"memory":  {kind: {hits, misses, builds, ...}},
             "backend": {"name": ..., "open_failures": ...,
                         "kinds": {kind: {disk_hits, corrupt_entries,
                                          io_retries, persist_failures}}},
             "leases":  {kind: {lease_waits, lease_takeovers,
                                lease_timeouts}}}

        Taken under the store lock, so a concurrent reader sees a
        consistent point-in-time view -- never a half-updated counter
        set -- and mutating the returned dicts cannot corrupt the live
        statistics.
        """
        backend = self.backend
        backend_info: Dict[str, object] = (
            dict(backend.stats()) if backend is not None else {"name": "none"}
        )
        with self._lock:
            kinds = sorted(self._stats.items())
            backend_info["open_failures"] = self._backend_open_failures
            if self._backend_open_error:
                backend_info["open_error"] = self._backend_open_error
            backend_info["kinds"] = {
                kind: dict(stats.backend_dict()) for kind, stats in kinds
            }
            snapshot: Dict[str, Dict[str, object]] = {
                "memory": {
                    kind: dict(stats.memory_dict()) for kind, stats in kinds
                },
                "backend": backend_info,
                "leases": {
                    kind: dict(stats.lease_dict()) for kind, stats in kinds
                },
            }
            return snapshot

    def record_degradation(self, kind: str) -> None:
        """Count one bulk -> naive degradation for *kind*."""
        with self._lock:
            self._stats.setdefault(kind, KindStats()).degradations += 1

    def record_deadline_hit(self, kind: str) -> None:
        """Count one deadline/step-budget cancellation for *kind*."""
        with self._lock:
            self._stats.setdefault(kind, KindStats()).deadline_hits += 1

    # -- the backend seam --------------------------------------------------------

    def _delete_persisted(self, key: ArtifactKey) -> None:
        backend = self.backend
        if backend is not None:
            backend.delete(key)  # best-effort by protocol contract

    def _load_from_backend(
        self, key: ArtifactKey, stats: KindStats
    ) -> Optional[object]:
        """The unpickled artifact from the backend, or ``None``.

        Every failure mode -- absent, torn, version-skewed, I/O-dead --
        is a silent miss; envelope damage is counted per kind and the
        damaged entry was already deleted by the backend.  A
        checksum-valid payload that still fails to *unpickle* means
        version skew in the pickled classes (not the envelope); same
        remedy -- count, delete, rebuild.
        """
        backend = self.backend
        if backend is None:
            return None
        result = backend.get(key)
        with self._lock:
            stats.io_retries += result.io_retries
            if result.corrupt:
                stats.corrupt_entries += 1
        if result.payload is None:
            return None
        try:
            return pickle.loads(result.payload)
        except Exception:
            with self._lock:
                stats.corrupt_entries += 1
            backend.delete(key)
            return None

    def _save_to_backend(
        self, key: ArtifactKey, value: object, stats: KindStats
    ) -> None:
        backend = self.backend
        if backend is None:
            return
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PickleError, TypeError, AttributeError):
            # Persistence is best-effort; unpicklable artifacts simply
            # stay memory-only.
            with self._lock:
                stats.persist_failures += 1
            return
        result = backend.put(key, payload)
        with self._lock:
            stats.io_retries += result.io_retries
            if not result.persisted:
                stats.persist_failures += 1

    # -- internals ---------------------------------------------------------------

    # reprolint: holds-lock
    def _insert(self, key: ArtifactKey, entry: _Entry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        for dependency in entry.dependencies:
            self._dependents.setdefault(dependency, set()).add(key)
        while len(self._entries) > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._stats.setdefault(evicted.kind, KindStats()).evictions += 1
