"""Advisory cross-process leases for the on-disk artifact cache.

Two processes that need the same persisted artifact should not both
build it: the build is pure but expensive, and concurrent writers
degenerate to wasted work plus last-writer-wins on disk.  A
:class:`FileLease` serialises them with the oldest portable primitive
there is -- a lockfile created with ``O_CREAT | O_EXCL`` next to the
artifact -- so the first process builds while the others wait, then
read the winner's envelope instead of rebuilding.

The lease is strictly *advisory* and strictly *cross-process*:

* **in-process** coordination is the store's single-flight registry
  (:class:`~repro.engine.store.ArtifactStore`), which is why a holder
  pid equal to our own is treated as a stale leak, not a peer;
* every failure mode -- unwritable directory, injected fault, timeout
  waiting for a holder -- degrades to *running unleased*.  The cache
  (and therefore its lock) must never be load-bearing: the worst
  outcome is the duplicate build the lease exists to avoid, never a
  missing artifact.

Stale leases cannot wedge the system.  The lockfile payload is
``"<pid> <unix-timestamp>"``; a holder whose pid is dead is taken over
by the next contender at once, and one whose lease has outlived the
TTL (``REPRO_CACHE_LOCK_TTL_MS``, default 30 s) once the TTL expires.
A TTL of 0 (or below) disables leasing entirely.

:func:`sweep_stale_temp_files` removes the per-pid ``*.tmp`` files a
crashed writer left behind; the local-dir backend
(:mod:`repro.engine.backends.localdir`) runs it one-shot per path at
``open()``, surfacing the reclaimed count as its ``sweep_reclaimed``
stat.

Both lease transitions are registered fault points (``lock.acquire``,
``lock.release``) so the chaos suite can prove the advisory contract:
an injected crash in either is absorbed, never propagated.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable, Optional

from repro.resilience.faults import fault_check
from repro.settings import CACHE_LOCK_TTL_MS, read

__all__ = [
    "DEFAULT_LOCK_TTL_MS",
    "FileLease",
    "LOCK_TTL_ENV_VAR",
    "lock_ttl_ms",
    "sweep_stale_temp_files",
]

#: Environment variable overriding the stale-lease TTL (milliseconds).
LOCK_TTL_ENV_VAR = CACHE_LOCK_TTL_MS.env

#: Default TTL: a holder silent for this long is presumed dead.
DEFAULT_LOCK_TTL_MS = CACHE_LOCK_TTL_MS.default

#: Per-wait sleep ceiling (seconds); backoff doubles up to this cap so
#: waiters notice a released lease promptly without busy-spinning.
_MAX_SLEEP = 0.1


def lock_ttl_ms() -> float:
    """The stale-lease TTL in milliseconds (env override or default);
    one that is not a number, or NaN, is a ``ConfigError``."""
    return read(CACHE_LOCK_TTL_MS)


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe (signal 0); unknown means alive."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # EPERM and friends: the pid exists but is not ours to signal.
        return True
    return True


class FileLease:
    """An advisory, TTL-bounded lease on one cache artifact.

    ``acquire`` returns ``True`` when the lockfile was created (we are
    the builder) and ``False`` when the lease could not be taken --
    disabled, faulted, unwritable, or timed out behind a live holder.
    Either way the caller proceeds; the flags (:attr:`waited`,
    :attr:`took_over`, :attr:`timed_out`) tell the store what happened
    so it can re-check the disk cache and count the contention.
    """

    def __init__(
        self,
        target: Path,
        ttl_ms: Optional[float] = None,
        backoff: float = 0.01,
        max_wait_ms: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.target = Path(target)
        self.path = self.target.parent / f"{self.target.name}.lock"
        self.ttl_ms = read(CACHE_LOCK_TTL_MS, ttl_ms, "FileLease")
        self.backoff = backoff
        #: How long to wait behind a live holder before giving up and
        #: building unleased; defaults to one TTL (after which the
        #: holder is stale and taken over anyway).
        self.max_wait_ms = self.ttl_ms if max_wait_ms is None else max_wait_ms
        self._sleep = sleep
        self.acquired = False
        #: True if at least one backoff wait happened (contention).
        self.waited = False
        #: True if a stale holder's lockfile was removed.
        self.took_over = False
        #: True if the wait budget ran out behind a live holder.
        self.timed_out = False

    # -- acquisition ----------------------------------------------------------

    def acquire(self) -> bool:
        """Try to take the lease; never raises, never waits past TTL."""
        self.acquired = self.waited = False
        self.took_over = self.timed_out = False
        if self.ttl_ms <= 0:
            return False
        try:
            fault_check("lock.acquire")
        except Exception:
            # Advisory: an injected (or real) acquisition failure means
            # we build unleased, not that the build fails.
            return False
        deadline = time.monotonic() + self.max_wait_ms / 1e3
        attempt = 0
        while True:
            try:
                fd = os.open(
                    str(self.path),
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                if self._holder_stale():
                    self._remove_lockfile()
                    self.took_over = True
                    continue
                if time.monotonic() >= deadline:
                    self.timed_out = True
                    return False
                self.waited = True
                # Cap the exponent: past a few doublings the sleep is
                # pinned at _MAX_SLEEP anyway, and an unbounded 2**n
                # overflows float conversion on long waits.
                doublings = min(attempt, 16)
                self._sleep(min(self.backoff * (2**doublings), _MAX_SLEEP))
                attempt += 1
                continue
            except OSError:
                # Unwritable/vanished cache directory: run unleased.
                return False
            try:
                payload = f"{os.getpid()} {time.time()}"
                os.write(fd, payload.encode("ascii"))
            # reprolint: disable=RL008 -- lease diagnostics payload is advisory; an empty lockfile still locks
            except OSError:
                pass
            finally:
                os.close(fd)
            self.acquired = True
            return True

    def _holder_stale(self) -> bool:
        """Whether the current lockfile may be removed.

        A holder is stale when its pid is dead, when it is *this*
        process (in-process callers are serialised by the store's
        single-flight registry, so a same-pid lockfile is a leak from a
        faulted release), or when the lease has outlived the TTL.  An
        unreadable payload falls back to the file's mtime.
        """
        try:
            parts = self.path.read_text("ascii").split()
            pid = int(parts[0])
            stamped = float(parts[1])
        except (OSError, ValueError, IndexError):
            pid = 0
            try:
                stamped = self.path.stat().st_mtime
            except OSError:
                return False  # vanished: the holder released; retry
        if pid == os.getpid():
            return True
        if pid and not _pid_alive(pid):
            return True
        return (time.time() - stamped) * 1e3 > self.ttl_ms

    # -- release --------------------------------------------------------------

    def release(self) -> None:
        """Give the lease back (no-op unless held); never raises."""
        if not self.acquired:
            return
        self.acquired = False
        try:
            fault_check("lock.release")
        except Exception:
            # A faulted release leaks the lockfile on purpose: the
            # stale-lease takeover path is what recovers it, and the
            # chaos suite exercises exactly that.
            return
        self._remove_lockfile()

    def _remove_lockfile(self) -> None:
        try:
            self.path.unlink(missing_ok=True)
        # reprolint: disable=RL008 -- lockfile removal is best-effort; a leftover lease is taken over after the TTL
        except OSError:
            pass

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "FileLease":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def sweep_stale_temp_files(cache_dir: str) -> int:
    """Delete ``*.tmp`` files left by dead writers; return the count.

    The store's atomic-save protocol writes through per-pid temp names
    (``<artifact>.<pid>.tmp``); a writer that dies mid-save leaks one.
    Temp files belonging to live pids (including our own) are in use
    and left alone.  Best-effort throughout: an unreadable directory
    sweeps nothing.
    """
    swept = 0
    try:
        candidates = list(Path(cache_dir).glob("*.tmp"))
    except OSError:
        return 0
    for path in candidates:
        parts = path.name.rsplit(".", 2)
        if len(parts) != 3:
            continue
        try:
            pid = int(parts[1])
        except ValueError:
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            path.unlink(missing_ok=True)
            swept += 1
        except OSError:
            continue
    return swept
