"""The shared-file SQLite backend: one database, a fleet of workers.

Where :class:`~repro.engine.backends.localdir.LocalDirBackend` is one
file per artifact, this backend is one SQLite database for *all* of
them -- safe for many processes sharing a file on local disk or an NFS
mount:

* **WAL journal mode** keeps readers un-blocked by the single writer;
* every write runs inside a ``BEGIN IMMEDIATE`` transaction, taking
  the write lock up front so two processes upserting the same artifact
  serialise instead of deadlocking mid-transaction;
* rows are keyed by the fingerprint-sharded namespace
  ``(kind, shard, fingerprint, kernel)`` with ``shard =
  fingerprint[:2]`` -- 256 buckets that keep prefix scans cheap and
  leave room for future partitioning across files;
* blobs are the same checksummed RPRO envelopes the local-dir backend
  writes, so artifacts are byte-portable between backends and damage
  inside the database (torn blob, version skew) reads as a silent
  miss, exactly like a damaged file;
* cross-process exactly-once builds reuse the
  :class:`~repro.resilience.locks.FileLease` machinery, scoped to a
  ``<database>.leases/`` directory next to the database file.

One connection per backend instance, guarded by a mutex: artifact
reads/writes are tiny and the store's single-flight already serialises
per-key work, so a shared connection beats per-thread connection
churn.  A backend instance must not be shared across ``fork()`` --
each worker process opens its own (SQLite connections are not
fork-safe); the multi-process benchmark and tests construct theirs
inside the child.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.engine.backends.base import GetResult, PutResult, RetryPolicy
from repro.engine.backends.envelope import unwrap_payload, wrap_payload
from repro.engine.keys import ArtifactKey
from repro.errors import BackendUnavailableError
from repro.resilience.faults import fault_check, fault_corrupt
from repro.resilience.locks import FileLease

__all__ = ["SQLiteBackend"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS artifacts (
    kind        TEXT NOT NULL,
    shard       TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    kernel      TEXT NOT NULL,
    blob        BLOB NOT NULL,
    created_at  REAL NOT NULL,
    PRIMARY KEY (kind, shard, fingerprint, kernel)
)
"""

#: How long one SQLite operation may spin on a contended write lock
#: before surfacing ``SQLITE_BUSY`` (which the retry policy then
#: absorbs).  Milliseconds.
_BUSY_TIMEOUT_MS = 2_000


class SQLiteBackend:
    """Enveloped artifact blobs in one shared SQLite database."""

    name = "sqlite"

    def __init__(
        self,
        url: str,
        io_attempts: int = 3,
        io_backoff: float = 0.01,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.url = str(url)
        self._retry = RetryPolicy(io_attempts, io_backoff, sleep)
        self._conn: Optional[sqlite3.Connection] = None
        self._conn_lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def open(self) -> None:
        """Connect and migrate the schema.

        Any failure -- unreachable path, corrupt database, injected
        fault -- surfaces as the one typed error the protocol allows,
        :class:`~repro.errors.BackendUnavailableError`; the store
        degrades to memory-only.
        """
        try:
            fault_check("backend.open")
            path = Path(self.url)
            if path.parent and not path.parent.exists():
                path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(
                self.url,
                timeout=_BUSY_TIMEOUT_MS / 1e3,
                check_same_thread=False,
            )
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
                conn.execute(_SCHEMA)
                conn.commit()
            except Exception:
                # The connection exists but the database is unusable
                # (corrupt file, locked WAL, injected fault): close it
                # before degrading, or every failed open leaks a
                # descriptor for the life of the process.
                conn.close()
                raise
        except BackendUnavailableError:
            raise
        except Exception as exc:
            raise BackendUnavailableError(
                f"cannot open SQLite artifact store at {self.url!r}:"
                f" {type(exc).__name__}: {exc}"
            ) from exc
        self._conn = conn

    def close(self) -> None:
        """Release the connection (idempotent; mostly for tests)."""
        with self._conn_lock:
            conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            # reprolint: disable=RL008 -- releasing a connection is best-effort teardown; nothing depends on it succeeding
            except sqlite3.Error:
                pass

    # -- protocol -------------------------------------------------------------

    def get(self, key: ArtifactKey) -> GetResult:
        retries = 0
        blob: Optional[bytes] = None
        for attempt in range(self._retry.attempts):
            try:
                fault_check("store.load")
                with self._conn_lock:
                    row = self._connection().execute(
                        "SELECT blob FROM artifacts WHERE kind=? AND"
                        " shard=? AND fingerprint=? AND kernel=?",
                        self._key_tuple(key),
                    ).fetchone()
                blob = None if row is None else bytes(row[0])
                break
            except (sqlite3.OperationalError, OSError):
                # SQLITE_BUSY, a locked WAL, transient filesystem
                # trouble: bounded retry, then give up as a miss.
                if attempt + 1 >= self._retry.attempts:
                    return GetResult(io_retries=retries)
                retries += 1
                self._retry.pause(attempt)
            except Exception:
                # Any other database failure is still just a miss: the
                # cache is never load-bearing.
                return GetResult(io_retries=retries)
        if blob is None:
            return GetResult(io_retries=retries)
        blob = fault_corrupt("store.load", blob)
        payload = unwrap_payload(blob)
        if payload is None:
            self.delete(key)
            return GetResult(corrupt=True, io_retries=retries)
        return GetResult(payload=payload, io_retries=retries)

    def put(self, key: ArtifactKey, payload: bytes) -> PutResult:
        blob = wrap_payload(payload)
        retries = 0
        for attempt in range(self._retry.attempts):
            try:
                fault_check("store.save")
                with self._conn_lock:
                    conn = self._connection()
                    conn.execute("BEGIN IMMEDIATE")
                    try:
                        conn.execute(
                            "INSERT OR REPLACE INTO artifacts"
                            " (kind, shard, fingerprint, kernel, blob,"
                            " created_at) VALUES (?, ?, ?, ?, ?, ?)",
                            (*self._key_tuple(key), blob, time.time()),
                        )
                        conn.commit()
                    except BaseException:
                        conn.rollback()
                        raise
                return PutResult(io_retries=retries)
            except (sqlite3.OperationalError, OSError):
                if attempt + 1 >= self._retry.attempts:
                    break
                retries += 1
                self._retry.pause(attempt)
            except Exception:
                # Persistence is best-effort under *any* failure mode.
                break
        return PutResult(persisted=False, io_retries=retries)

    def delete(self, key: ArtifactKey) -> None:
        try:
            with self._conn_lock:
                conn = self._connection()
                conn.execute(
                    "DELETE FROM artifacts WHERE kind=? AND shard=? AND"
                    " fingerprint=? AND kernel=?",
                    self._key_tuple(key),
                )
                conn.commit()
        # reprolint: disable=RL008 -- row cleanup is best-effort; a stale entry is rejected by checksum on read
        except Exception:
            pass

    def sweep(self) -> int:
        """Reclaim nothing; always 0.

        Rows are written in one transaction, and :class:`FileLease`
        takes over a dead holder's lockfile when the next contender
        asks for it, so no leftovers need an eager sweep.
        """
        return 0

    def stats(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "url": self.url,
            "sweep_reclaimed": 0,
        }

    def lease_for(self, key: ArtifactKey) -> Optional[FileLease]:
        """A lease under ``<database>.leases/``, shared fleet-wide.

        Every process pointing at one database file resolves the same
        lease directory, so the exactly-once guarantee spans the fleet
        exactly as it does for a shared cache directory.
        """
        lease_dir = self._lease_dir()
        try:
            lease_dir.mkdir(parents=True, exist_ok=True)
        # reprolint: disable=RL008 -- the lease is advisory; an uncreatable lease dir means building unleased, never failing
        except OSError:
            pass
        return FileLease(
            lease_dir / key.filename(),
            backoff=self._retry.backoff,
            sleep=self._retry.sleep,
        )

    # -- internals ------------------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        conn = self._conn
        if conn is None:
            # reprolint: disable=RL001 -- programming-error guard: protocol methods require open() first; BackendError is typed
            raise BackendUnavailableError(
                f"SQLite backend at {self.url!r} is not open"
            )
        return conn

    def _lease_dir(self) -> Path:
        return Path(f"{self.url}.leases")

    @staticmethod
    def _key_tuple(key: ArtifactKey) -> "tuple[str, str, str, str]":
        return (key.kind, key.shard(), key.fingerprint, key.kernel)

    def __del__(self) -> None:
        self.close()
