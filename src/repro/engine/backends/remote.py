"""The HTTP backend: artifacts served by a shared ``artifactd``.

``REPRO_STORE_BACKEND=remote`` with ``REPRO_STORE_URL=http://host:port``
points the store at a :mod:`repro.artifactd` server, making build
sharing cross-*host*: any worker's compiled state space is every
worker's warm hit.  The network is the first genuinely unreliable
medium a backend has lived on, so this one carries its own weather
gear, layered strictly fail-open (the cache is never load-bearing):

1. **Per-op deadlines** -- every HTTP call gets a hard timeout
   (``REPRO_REMOTE_TIMEOUT_MS``); a hung server costs one deadline,
   never a hung session.
2. **Capped-exponential retry with full jitter** on transient
   transport failures (connection refused/reset, timeout, truncated
   response, 5xx): ``sleep ~ U(0, min(cap, base * 2**attempt))``, so a
   fleet thundering against a recovering server spreads out instead of
   re-synchronising.
3. **Envelope verification on read** -- bytes that fail the SHA-256
   envelope check (bit rot, truncation, proxy damage) are a silent
   miss, counted, and the damaged entry is deleted server-side
   best-effort so corruption is paid for once.
4. **A circuit breaker** -- a
   :class:`~repro.resilience.breaker.CircuitBreaker` circuit keyed
   ``("transport", url)``: after ``threshold`` *consecutive* exhausted
   operations (3 by default) the backend stops calling the server for
   ``cooldown_ms`` (5 s), then lets one probe through (half-open); a
   dead server costs each worker a few timeouts, not a timeout per
   artifact.
5. **A write-behind spill tier** -- with ``REPRO_REMOTE_SPILL_DIR``
   set, everything the server cannot take lands in a local
   :class:`~repro.engine.backends.localdir.LocalDirBackend`; reads
   fall back to it, and a spill hit while the server is healthy is
   flushed back upstream (self-healing).  Without a spill dir the
   ladder ends at the store's own memory tier.

Leases are remote too: :class:`RemoteLease` speaks the server's
``/lease`` endpoint (TTL + holder token, last-writer-wins on expiry),
mirroring :class:`~repro.resilience.locks.FileLease` semantics so a
*cross-host* fleet still builds each contended artifact exactly once.
Like every lease in this codebase it is advisory: any failure --
breaker open, transport dead, fault injected at ``remote.lease`` --
degrades to building unleased, never to a failed build.

The ``remote.get`` / ``remote.put`` / ``remote.lease`` fault points
fire *inside* the retry loop, so an injected crash is
indistinguishable from a real transport failure and takes the same
ladder down.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import threading
import time
import urllib.error
import urllib.request
import uuid
import warnings
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import quote

from repro.engine.backends.base import (
    BackendDegradedWarning,
    GetResult,
    PutResult,
    RetryPolicy,
)
from repro.engine.backends.envelope import unwrap_payload, wrap_payload
from repro.engine.backends.localdir import LocalDirBackend
from repro.engine.keys import ArtifactKey
from repro.errors import BackendUnavailableError, CircuitOpenError
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import fault_check, fault_corrupt
from repro.resilience.locks import lock_ttl_ms
from repro.settings import REMOTE_TIMEOUT_MS, read

__all__ = [
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_BREAKER_COOLDOWN_MS",
    "REMOTE_SPILL_ENV_VAR",
    "RemoteBackend",
    "RemoteLease",
]

#: Environment variable locating the local write-behind spill tier.
REMOTE_SPILL_ENV_VAR = "REPRO_REMOTE_SPILL_DIR"

DEFAULT_BREAKER_THRESHOLD = 3
DEFAULT_BREAKER_COOLDOWN_MS = 5_000.0

#: Jitter ceiling per retry pause (seconds): past a few doublings the
#: pause is drawn from U(0, this) regardless of attempt number.
_MAX_BACKOFF_S = 0.25

# Internal op outcomes (the retry loop's verdict, pre-accounting).
_OK = "ok"
_MISS = "miss"
_FAIL = "fail"


def remote_spill_dir(explicit: Optional[str] = None) -> Optional[str]:
    """The spill directory, or ``None`` (no local fallback tier)."""
    if explicit is not None:
        return explicit
    raw = os.environ.get(REMOTE_SPILL_ENV_VAR)
    if raw is None or not raw.strip():
        return None
    return raw


class RemoteLease:
    """A TTL lease on one artifact, held at the artifact server.

    Satisfies the :class:`~repro.engine.backends.base.Lease` protocol:
    ``acquire`` polls the server's ``/lease`` endpoint with capped
    jittered backoff until granted, timed out behind a live holder, or
    dead transport-wise -- and every failure mode answers ``False``
    (build unleased), never raises.  The holder token is unique per
    lease instance, so a takeover by another worker cannot be released
    by us and vice versa.
    """

    def __init__(self, backend: "RemoteBackend", key: ArtifactKey) -> None:
        self._backend = backend
        self._key = key
        self.holder = f"{os.getpid()}-{uuid.uuid4().hex[:12]}"
        self.ttl_ms = lock_ttl_ms()
        #: Wait budget behind a live holder; one TTL, like FileLease.
        self.max_wait_ms = self.ttl_ms
        self.acquired = False
        self.waited = False
        self.took_over = False
        self.timed_out = False

    def acquire(self) -> bool:
        self.acquired = self.waited = False
        self.took_over = self.timed_out = False
        if self.ttl_ms <= 0:
            return False
        deadline = time.monotonic() + self.max_wait_ms / 1e3
        attempt = 0
        transport_failures = 0
        while True:
            verdict = self._backend._lease_request(
                self._key, self.holder, self.ttl_ms
            )
            if verdict is None:
                # Transport failure (or breaker open, or injected
                # fault): a bounded number of strikes, then build
                # unleased -- the lease is advisory.
                transport_failures += 1
                if transport_failures >= self._backend._retry.attempts:
                    return False
            elif verdict[0]:
                self.acquired = True
                self.took_over = verdict[1]
                return True
            elif time.monotonic() >= deadline:
                self.timed_out = True
                return False
            else:
                self.waited = True
            self._backend._jitter_pause(attempt)
            attempt += 1

    def release(self) -> None:
        if not self.acquired:
            return
        self.acquired = False
        self._backend._lease_release(self._key, self.holder)

    def __enter__(self) -> "RemoteLease":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class RemoteBackend:
    """Enveloped artifacts on a shared HTTP artifact server."""

    name = "remote"

    def __init__(
        self,
        url: str,
        io_attempts: int = 3,
        io_backoff: float = 0.01,
        sleep: Callable[[float], None] = time.sleep,
        timeout_ms: Optional[float] = None,
        spill_dir: Optional[str] = None,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown_ms: float = DEFAULT_BREAKER_COOLDOWN_MS,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.url = str(url).rstrip("/")
        self._retry = RetryPolicy(io_attempts, io_backoff, sleep)
        self.timeout_ms = read(REMOTE_TIMEOUT_MS, timeout_ms, "RemoteBackend")
        self.spill_dir = remote_spill_dir(spill_dir)
        # A threshold below 1 or a cooldown below 0 is a ConfigError,
        # as an io_attempts below 1 is in RetryPolicy.
        self._breaker = CircuitBreaker(
            threshold=threshold, cooldown_ms=cooldown_ms
        )
        self._circuit = ("transport", self.url)
        # Retry jitter only -- nothing fingerprint-relevant draws from
        # this, so an unseeded default is fine (tests inject a seeded
        # one for reproducible pause sequences).
        self._rng = rng if rng is not None else random.Random()
        self._spill: Optional[LocalDirBackend] = (
            LocalDirBackend(
                self.spill_dir,
                io_attempts=io_attempts,
                io_backoff=io_backoff,
                sleep=sleep,
            )
            if self.spill_dir
            else None
        )
        self._lock = threading.Lock()
        # -- counters (guarded by self._lock) --
        self._counters: Dict[str, int] = {
            "remote_gets": 0,
            "remote_hits": 0,
            "remote_puts": 0,
            "remote_deletes": 0,
            "transport_failures": 0,
            "transport_retries": 0,
            "corrupt_envelopes": 0,
            "breaker_rejections": 0,
            "spill_puts": 0,
            "spill_hits": 0,
            "spill_flushes": 0,
            "lease_grants": 0,
            "lease_denied": 0,
        }

    # -- lifecycle ------------------------------------------------------------

    def open(self) -> None:
        """Probe the server; degrade to the spill tier if it is down.

        With a spill directory configured, an unreachable server is a
        *degradation* (breaker opens, sessions run against the spill
        tier, a :class:`BackendDegradedWarning` is emitted) -- the
        store keeps a persistence tier and the fleet keeps working.
        Without one, it is the one failure ``open()`` may surface:
        :class:`~repro.errors.BackendUnavailableError`, and the store
        goes memory-only.
        """
        fault_check("backend.open")
        if not self.url.startswith(("http://", "https://")):
            raise BackendUnavailableError(
                f"remote artifact store URL {self.url!r} is not"
                " http(s)://"
            )
        if self._spill is not None:
            self._spill.open()
        try:
            status, _ = self._http(
                "GET", "/healthz", None, self.timeout_ms / 1e3
            )
        except Exception as exc:
            if self._spill is not None:
                self._breaker.trip(*self._circuit)
                warnings.warn(
                    BackendDegradedWarning(
                        f"artifact server {self.url} is unreachable"
                        f" ({type(exc).__name__}); spilling to"
                        f" {self.spill_dir}"
                    ),
                    stacklevel=2,
                )
                return
            raise BackendUnavailableError(
                f"cannot reach artifact server at {self.url!r}:"
                f" {type(exc).__name__}: {exc}"
            ) from exc
        if status != 200:
            if self._spill is not None:
                self._breaker.trip(*self._circuit)
                warnings.warn(
                    BackendDegradedWarning(
                        f"artifact server {self.url} answered"
                        f" {status} to the health probe; spilling to"
                        f" {self.spill_dir}"
                    ),
                    stacklevel=2,
                )
                return
            raise BackendUnavailableError(
                f"artifact server at {self.url!r} answered {status}"
                " to the health probe"
            )

    # -- protocol -------------------------------------------------------------

    def get(self, key: ArtifactKey) -> GetResult:
        with self._lock:
            self._counters["remote_gets"] += 1
        outcome, blob, retries = self._op(
            "GET",
            self._artifact_path(key),
            None,
            lambda: fault_check("remote.get"),
        )
        # Damaged bytes get re-fetched on the same attempt budget the
        # transport retries use: unlike a damaged *file*, a damaged
        # *response* is usually the wire's fault (a flaky proxy or
        # NIC) -- the HTTP framing survives a flipped payload bit, so
        # only the envelope checksum can see it, and only a fresh
        # round-trip can fix it.  Evicting the server's (likely fine)
        # copy is the last resort, not the first.
        fetch_round = 0
        while outcome == _OK and blob is not None:
            blob = fault_corrupt("remote.get", blob)
            payload = unwrap_payload(blob)
            if payload is not None:
                with self._lock:
                    self._counters["remote_hits"] += 1
                return GetResult(payload=payload, io_retries=retries)
            with self._lock:
                self._counters["corrupt_envelopes"] += 1
            fetch_round += 1
            if fetch_round >= self._retry.attempts:
                # Every round-trip delivered damage: treat the stored
                # envelope itself as bad.  Silent miss, and pay for
                # the corruption once by evicting the entry.
                self.delete(key)
                return GetResult(corrupt=True, io_retries=retries)
            self._jitter_pause(fetch_round - 1)
            outcome, blob, refetch_retries = self._op(
                "GET",
                self._artifact_path(key),
                None,
                lambda: fault_check("remote.get"),
            )
            retries += refetch_retries
        if self._spill is None:
            return GetResult(io_retries=retries)
        spilled = self._spill.get(key)
        if spilled.payload is not None:
            with self._lock:
                self._counters["spill_hits"] += 1
            if outcome == _MISS:
                # The server is healthy but never saw this artifact
                # (it spilled during an outage): flush it back so the
                # rest of the fleet stops missing.
                self._flush_to_remote(key, spilled.payload)
        return GetResult(
            payload=spilled.payload,
            corrupt=spilled.corrupt,
            io_retries=retries + spilled.io_retries,
        )

    def put(self, key: ArtifactKey, payload: bytes) -> PutResult:
        with self._lock:
            self._counters["remote_puts"] += 1
        blob = wrap_payload(payload)
        outcome, _, retries = self._op(
            "PUT",
            self._artifact_path(key),
            blob,
            lambda: fault_check("remote.put"),
        )
        if outcome == _OK:
            return PutResult(io_retries=retries)
        if self._spill is None:
            return PutResult(persisted=False, io_retries=retries)
        spilled = self._spill.put(key, payload)
        if spilled.persisted:
            with self._lock:
                self._counters["spill_puts"] += 1
        return PutResult(
            persisted=spilled.persisted,
            io_retries=retries + spilled.io_retries,
        )

    def delete(self, key: ArtifactKey) -> None:
        with self._lock:
            self._counters["remote_deletes"] += 1
        # Best-effort on both tiers; a survivor is re-rejected by
        # checksum (or dependency fingerprints) on its next read.
        self._op(
            "DELETE",
            self._artifact_path(key),
            None,
            lambda: fault_check("remote.put"),
        )
        if self._spill is not None:
            self._spill.delete(key)

    def sweep(self) -> int:
        reclaimed = 0
        outcome, body, _ = self._op(
            "POST", "/sweep", b"", lambda: fault_check("remote.put")
        )
        if outcome == _OK and body is not None:
            try:
                parsed = json.loads(body)
                if isinstance(parsed, dict):
                    value = parsed.get("reclaimed", 0)
                    if isinstance(value, int):
                        reclaimed += value
            # reprolint: disable=RL008 -- a malformed sweep reply only loses a counter, never correctness
            except ValueError:
                pass
        if self._spill is not None:
            reclaimed += self._spill.sweep()
        return reclaimed

    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters)
        snapshot: Dict[str, object] = {
            "name": self.name,
            "url": self.url,
            "breaker_state": self._breaker.state(*self._circuit),
            "breaker_trips": self._breaker.trips,
            **counters,
        }
        if self._spill is not None:
            snapshot["spill"] = self._spill.stats()
        return snapshot

    def lease_for(self, key: ArtifactKey) -> Optional[RemoteLease]:
        return RemoteLease(self, key)

    # -- lease plumbing (called by RemoteLease) -------------------------------

    def _lease_request(
        self, key: ArtifactKey, holder: str, ttl_ms: float
    ) -> Optional[Tuple[bool, bool]]:
        """One acquire round-trip: ``(granted, took_over)``, ``None``
        on transport failure or an open breaker."""
        body = json.dumps({"holder": holder, "ttl_ms": ttl_ms}).encode(
            "utf-8"
        )
        outcome, reply, _ = self._op(
            "POST",
            self._lease_path(key),
            body,
            lambda: fault_check("remote.lease"),
        )
        if outcome == _FAIL or reply is None:
            return None
        try:
            parsed = json.loads(reply)
        except ValueError:
            return None
        if not isinstance(parsed, dict):
            return None
        granted = bool(parsed.get("granted"))
        with self._lock:
            if granted:
                self._counters["lease_grants"] += 1
            else:
                self._counters["lease_denied"] += 1
        return (granted, bool(parsed.get("took_over")))

    def _lease_release(self, key: ArtifactKey, holder: str) -> None:
        self._op(
            "DELETE",
            f"{self._lease_path(key)}?holder={quote(holder)}",
            None,
            lambda: fault_check("remote.lease"),
        )

    # -- transport ------------------------------------------------------------

    def _op(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        check: Callable[[], None],
    ) -> Tuple[str, Optional[bytes], int]:
        """One logical operation: retry loop + breaker accounting.

        Returns ``(outcome, body, io_retries)`` where outcome is
        ``"ok"`` (2xx), ``"miss"`` (404 -- a *successful* round-trip
        that found nothing), or ``"fail"`` (breaker open, or transport
        failures exhausted the attempt budget).  Lease conflicts (409)
        come back as ``"ok"`` with the conflict body -- the protocol
        speaks in JSON verdicts, not errors.
        """
        try:
            self._breaker.admit(*self._circuit)
        except CircuitOpenError:
            with self._lock:
                self._counters["breaker_rejections"] += 1
            return (_FAIL, None, 0)
        retries = 0
        healthy = False
        for attempt in range(self._retry.attempts):
            if attempt:
                retries += 1
                with self._lock:
                    self._counters["transport_retries"] += 1
                self._jitter_pause(attempt - 1)
            try:
                check()
                status, reply = self._http(
                    method, path, body, self.timeout_ms / 1e3
                )
            except Exception:
                # Connection refused/reset, timeout, truncated reply,
                # or an injected fault -- all the same transient to us.
                status, reply = 0, None
            # No reply (status 0) and a 5xx (server-side trouble) are
            # the same retryable transient; any other reply means the
            # server is up, whatever it thought of the request.
            healthy = 0 < status < 500
            if healthy:
                self._breaker.record_success(*self._circuit)
                if status == 404:
                    return (_MISS, None, retries)
                # A 400 to a PUT: the server rejected the envelope's
                # structural check, so our bytes were damaged *in
                # flight* (we just wrapped them).  Retry -- a clean
                # connection will carry them.
                if status != 400 or method != "PUT":
                    return (_OK, reply, retries)
            with self._lock:
                self._counters["transport_failures"] += 1
        if not healthy:
            self._breaker.record_failure(*self._circuit)
        return (_FAIL, None, retries)

    def _http(
        self,
        method: str,
        path: str,
        body: Optional[bytes],
        timeout_s: float,
    ) -> Tuple[int, Optional[bytes]]:
        """One HTTP round-trip; raises on any transport failure."""
        request = urllib.request.Request(
            f"{self.url}{path}", data=body, method=method
        )
        if body is not None:
            request.add_header("Content-Type", "application/octet-stream")
        try:
            with urllib.request.urlopen(
                request, timeout=timeout_s
            ) as response:
                return (response.status, response.read())
        except urllib.error.HTTPError as exc:
            # Non-2xx with a well-formed reply: a *successful*
            # round-trip carrying a verdict, not a transport failure.
            reply: Optional[bytes]
            try:
                reply = exc.read()
            except (OSError, http.client.HTTPException):
                reply = None
            return (exc.code, reply)

    def _jitter_pause(self, attempt: int) -> None:
        """Full-jitter backoff: ``U(0, min(cap, base * 2**attempt))``."""
        doublings = min(attempt, 16)
        ceiling = min(
            self._retry.backoff * (2**doublings), _MAX_BACKOFF_S
        )
        self._retry.sleep(self._rng.uniform(0.0, ceiling))

    def _flush_to_remote(self, key: ArtifactKey, payload: bytes) -> None:
        """Write-behind: push a spill hit back upstream, best-effort."""
        outcome, _, _ = self._op(
            "PUT",
            self._artifact_path(key),
            wrap_payload(payload),
            lambda: fault_check("remote.put"),
        )
        if outcome == _OK:
            with self._lock:
                self._counters["spill_flushes"] += 1

    # -- paths ----------------------------------------------------------------

    @staticmethod
    def _quoted(key: ArtifactKey) -> str:
        return (
            f"{quote(key.kind, safe='')}"
            f"/{quote(key.fingerprint, safe='')}"
            f"/{quote(key.kernel, safe='')}"
        )

    def _artifact_path(self, key: ArtifactKey) -> str:
        return f"/artifact/{self._quoted(key)}"

    def _lease_path(self, key: ArtifactKey) -> str:
        return f"/lease/{self._quoted(key)}"
