"""The threaded HTTP artifact server behind ``python -m repro.artifactd``.

One :class:`ArtifactServer` owns three pieces of state, each guarded by
one lock: the envelope table (``(kind, fingerprint, kernel)`` -> enveloped
bytes, optionally mirrored to a directory so restarts keep the fleet
warm), the :class:`LeaseTable`, and the counters ``/stats`` reports.
Requests are served by :class:`http.server.ThreadingHTTPServer` -- one
daemon thread per connection, which is plenty for an artifact tier whose
operations are dict lookups and small file I/O.

Wire format (all non-artifact bodies are JSON):

====== ============================================ =======================
Method Path                                         Meaning
====== ============================================ =======================
GET    ``/artifact/<kind>/<fingerprint>/<kernel>``  envelope bytes or 404
PUT    ``/artifact/<kind>/<fingerprint>/<kernel>``  store (400 if damaged)
DELETE ``/artifact/<kind>/<fingerprint>/<kernel>``  best-effort, 204
POST   ``/lease/<kind>/<fingerprint>/<kernel>``     acquire (200) / 409
DELETE ``/lease/<kind>/<fingerprint>/<kernel>``     release (holder token)
POST   ``/sweep``                                   purge expired leases
GET    ``/stats``                                   counters snapshot
GET    ``/healthz``                                 liveness probe
====== ============================================ =======================

Lease semantics mirror :class:`~repro.resilience.locks.FileLease`:
a lease is ``(holder token, TTL)``; an expired lease is taken over by
the next acquirer (last-writer-wins -- the grant carries
``took_over: true`` so clients can count it), re-acquiring with the
same token refreshes the TTL, and releasing with a stale token is a
silent no-op (the lease already belongs to someone else).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple
from urllib.parse import unquote

from repro.engine.backends.envelope import validate_envelope_structure
from repro.engine.keys import ArtifactKey
from repro.resilience.locks import DEFAULT_LOCK_TTL_MS

__all__ = ["ArtifactServer", "LeaseTable"]

#: Per-envelope size ceiling: a runaway upload must not take the whole
#: server's memory with it (413 when exceeded).
_MAX_ENVELOPE_BYTES = 64 * 1024 * 1024


class LeaseTable:
    """TTL leases keyed like artifacts, last-writer-wins on expiry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._leases: Dict[Tuple[str, str, str], Tuple[str, float]] = {}

    def grant(
        self, key: Tuple[str, str, str], holder: str, ttl_ms: float
    ) -> Dict[str, object]:
        """Try to grant *key* to *holder* for *ttl_ms* milliseconds.

        Returns the JSON-ready verdict: ``granted`` plus ``took_over``
        on success, or the current holder and its remaining TTL on
        conflict.  A holder re-acquiring its own live lease refreshes
        the TTL (the remote client retries acquisition after transport
        hiccups, and a refresh must not read as contention).
        """
        now = time.monotonic()
        with self._lock:
            current = self._leases.get(key)
            took_over = False
            if current is not None:
                current_holder, expires_at = current
                if current_holder != holder and expires_at > now:
                    return {
                        "granted": False,
                        "holder": current_holder,
                        "expires_in_ms": round((expires_at - now) * 1e3, 3),
                    }
                took_over = current_holder != holder
            self._leases[key] = (holder, now + ttl_ms / 1e3)
            return {
                "granted": True,
                "holder": holder,
                "took_over": took_over,
                "ttl_ms": ttl_ms,
            }

    def release(self, key: Tuple[str, str, str], holder: str) -> bool:
        """Release *key* if *holder* still owns it; stale tokens no-op."""
        with self._lock:
            current = self._leases.get(key)
            if current is None or current[0] != holder:
                return False
            del self._leases[key]
            return True

    def sweep(self) -> int:
        """Purge expired leases eagerly; returns the count."""
        now = time.monotonic()
        with self._lock:
            expired = [
                key
                for key, (_, expires_at) in self._leases.items()
                if expires_at <= now
            ]
            for key in expired:
                del self._leases[key]
            return len(expired)

    def __len__(self) -> int:
        with self._lock:
            return len(self._leases)


class _ArtifactdHTTPServer(ThreadingHTTPServer):
    """The socket server; :class:`ArtifactServer` holds the state."""

    daemon_threads = True
    #: Back-reference set by :class:`ArtifactServer` before serving.
    artifactd: "ArtifactServer"

    def handle_error(
        self, request: object, client_address: object
    ) -> None:
        """Swallow peer-side disconnects; they are the client's business.

        A client (or chaos proxy) that resets mid-response produces a
        ``BrokenPipeError``/``ConnectionResetError`` in the handler
        thread -- expected wire weather, not a server bug, and the
        default traceback spray would drown real errors.
        """
        exc = sys.exception()
        if isinstance(exc, (ConnectionError, TimeoutError)):
            return
        super().handle_error(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    """Route one request against the owning :class:`ArtifactServer`."""

    protocol_version = "HTTP/1.1"
    server: _ArtifactdHTTPServer

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        """Silence the default stderr chatter; counters are the log."""

    def _send_json(self, status: int, body: Dict[str, object]) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_empty(self) -> None:
        # A 204 must carry no body: stray bytes after it would desync a
        # kept-alive connection.
        self.send_response(204)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _send_bytes(self, blob: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _read_body(self) -> Optional[bytes]:
        raw_length = self.headers.get("Content-Length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            self._send_json(
                400,
                {
                    "error": "bad-request",
                    "message": f"bad Content-Length {raw_length!r}",
                },
            )
            return None
        if length > _MAX_ENVELOPE_BYTES:
            self._send_json(
                413,
                {
                    "error": "too-large",
                    "message": f"envelope of {length} bytes exceeds the"
                    f" {_MAX_ENVELOPE_BYTES}-byte ceiling",
                },
            )
            return None
        return self.rfile.read(length) if length > 0 else b""

    def _artifact_key(self, path: str) -> Optional[Tuple[str, str, str]]:
        """The ``(kind, fingerprint, kernel)`` of an artifact/lease path."""
        parts = [unquote(part) for part in path.split("/") if part]
        if len(parts) != 4 or not all(parts[1:]):
            self._send_json(
                400,
                {
                    "error": "bad-request",
                    "message": "expected"
                    " /{artifact|lease}/<kind>/<fingerprint>/<kernel>",
                },
            )
            return None
        return (parts[1], parts[2], parts[3])

    def _not_found(self) -> None:
        self._send_json(
            404,
            {
                "error": "not-found",
                "message": f"no route {self.command} {self.path}",
            },
        )

    # -- verbs -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        daemon = self.server.artifactd
        path = self.path.partition("?")[0]
        if path == "/healthz":
            self._send_json(200, daemon.health())
            return
        if path == "/stats":
            self._send_json(200, daemon.stats())
            return
        if path.startswith("/artifact/"):
            key = self._artifact_key(path)
            if key is None:
                return
            blob = daemon.get_artifact(key)
            if blob is None:
                self._send_json(
                    404, {"error": "not-found", "message": "no such artifact"}
                )
            else:
                self._send_bytes(blob)
            return
        self._not_found()

    def do_PUT(self) -> None:  # noqa: N802 -- http.server API
        daemon = self.server.artifactd
        path = self.path.partition("?")[0]
        if path.startswith("/artifact/"):
            key = self._artifact_key(path)
            if key is None:
                return
            blob = self._read_body()
            if blob is None:
                return
            if daemon.put_artifact(key, blob):
                self._send_empty()
            else:
                self._send_json(
                    400,
                    {
                        "error": "damaged-envelope",
                        "message": "payload failed the RPRO structural"
                        " check (magic/length/checksum); not stored",
                    },
                )
            return
        self._not_found()

    def do_POST(self) -> None:  # noqa: N802 -- http.server API
        daemon = self.server.artifactd
        path = self.path.partition("?")[0]
        if path == "/sweep":
            self._send_json(200, {"reclaimed": daemon.sweep()})
            return
        if path.startswith("/lease/"):
            key = self._artifact_key(path)
            if key is None:
                return
            body = self._read_body()
            if body is None:
                return
            try:
                fields = json.loads(body) if body else {}
            except ValueError:
                fields = None
            holder = (
                fields.get("holder") if isinstance(fields, dict) else None
            )
            if not isinstance(holder, str) or not holder:
                self._send_json(
                    400,
                    {
                        "error": "bad-request",
                        "message": "lease acquire needs a JSON body with"
                        ' a non-empty "holder" token',
                    },
                )
                return
            # An acquire that names no usable TTL gets the client
            # library's default.
            raw_ttl = (
                fields.get("ttl_ms", DEFAULT_LOCK_TTL_MS)
                if isinstance(fields, dict)
                else DEFAULT_LOCK_TTL_MS
            )
            ttl_ms = (
                float(raw_ttl)
                if isinstance(raw_ttl, (int, float)) and raw_ttl > 0
                else DEFAULT_LOCK_TTL_MS
            )
            verdict = daemon.lease(key, holder, ttl_ms)
            self._send_json(200 if verdict["granted"] else 409, verdict)
            return
        self._not_found()

    def do_DELETE(self) -> None:  # noqa: N802 -- http.server API
        daemon = self.server.artifactd
        path, _, query = self.path.partition("?")
        if path.startswith("/artifact/"):
            key = self._artifact_key(path)
            if key is None:
                return
            daemon.delete_artifact(key)
            self._send_empty()
            return
        if path.startswith("/lease/"):
            key = self._artifact_key(path)
            if key is None:
                return
            holder = ""
            for pair in query.split("&"):
                name, _, value = pair.partition("=")
                if name == "holder":
                    holder = unquote(value)
            daemon.release_lease(key, holder)
            self._send_empty()
            return
        self._not_found()


class ArtifactServer:
    """State + lifecycle of one artifact daemon (see module docs)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        root: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        #: Optional persistence directory: envelopes survive restarts.
        self.root = root
        self.leases = LeaseTable()
        self._lock = threading.Lock()
        self._artifacts: Dict[Tuple[str, str, str], bytes] = {}
        self._httpd: Optional[_ArtifactdHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at = 0.0
        # -- counters (guarded by self._lock) --
        self._counters: Dict[str, int] = {
            "gets": 0,
            "get_hits": 0,
            "get_misses": 0,
            "puts": 0,
            "puts_rejected": 0,
            "deletes": 0,
            "lease_grants": 0,
            "lease_conflicts": 0,
            "lease_takeovers": 0,
            "lease_releases": 0,
            "swept_leases": 0,
            "corrupt_purged": 0,
        }

    # -- storage ---------------------------------------------------------------

    def get_artifact(self, key: Tuple[str, str, str]) -> Optional[bytes]:
        with self._lock:
            self._counters["gets"] += 1
            blob = self._artifacts.get(key)
        if blob is None and self.root is not None:
            blob = self._load_from_root(key)
        with self._lock:
            if blob is None:
                self._counters["get_misses"] += 1
            else:
                self._counters["get_hits"] += 1
        return blob

    def put_artifact(self, key: Tuple[str, str, str], blob: bytes) -> bool:
        """Store *blob* under *key* iff it is a structurally sound
        envelope; last-writer-wins.  Returns whether it was stored."""
        if not validate_envelope_structure(blob):
            with self._lock:
                self._counters["puts_rejected"] += 1
            return False
        with self._lock:
            self._artifacts[key] = blob
            self._counters["puts"] += 1
        if self.root is not None:
            self._save_to_root(key, blob)
        return True

    def delete_artifact(self, key: Tuple[str, str, str]) -> None:
        with self._lock:
            self._artifacts.pop(key, None)
            self._counters["deletes"] += 1
        if self.root is not None:
            try:
                self._root_path(key).unlink(missing_ok=True)
            # reprolint: disable=RL008 -- mirror-file cleanup is best-effort; a stale file is re-validated on load
            except OSError:
                pass

    def _root_path(self, key: Tuple[str, str, str]) -> Path:
        kind, fingerprint, kernel = key
        return Path(str(self.root)) / ArtifactKey(
            kind, fingerprint, kernel
        ).filename()

    def _load_from_root(
        self, key: Tuple[str, str, str]
    ) -> Optional[bytes]:
        """Fault in one envelope from the mirror directory, validated.

        A damaged mirror file (torn write from a crashed predecessor)
        is purged and counted -- corruption is paid for once, exactly
        like the file backends do it.
        """
        try:
            blob = self._root_path(key).read_bytes()
        except OSError:
            return None
        if not validate_envelope_structure(blob):
            with self._lock:
                self._counters["corrupt_purged"] += 1
            try:
                self._root_path(key).unlink(missing_ok=True)
            # reprolint: disable=RL008 -- purging a damaged mirror file is best-effort; it is already treated as absent
            except OSError:
                pass
            return None
        with self._lock:
            self._artifacts.setdefault(key, blob)
        return blob

    def _save_to_root(self, key: Tuple[str, str, str], blob: bytes) -> None:
        path = self._root_path(key)
        tmp = path.parent / f"{path.name}.{os.getpid()}.tmp"
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            tmp.replace(path)
        except OSError:
            # The mirror is an optimisation (warm restarts); the
            # in-memory table already holds the envelope.
            try:
                tmp.unlink(missing_ok=True)
            # reprolint: disable=RL008 -- temp-file cleanup after a failed mirror write; the memory table is authoritative
            except OSError:
                pass

    # -- leases ----------------------------------------------------------------

    def lease(
        self, key: Tuple[str, str, str], holder: str, ttl_ms: float
    ) -> Dict[str, object]:
        verdict = self.leases.grant(key, holder, ttl_ms)
        with self._lock:
            if verdict["granted"]:
                self._counters["lease_grants"] += 1
                if verdict.get("took_over"):
                    self._counters["lease_takeovers"] += 1
            else:
                self._counters["lease_conflicts"] += 1
        return verdict

    def release_lease(self, key: Tuple[str, str, str], holder: str) -> None:
        released = self.leases.release(key, holder)
        with self._lock:
            if released:
                self._counters["lease_releases"] += 1

    def sweep(self) -> int:
        reclaimed = self.leases.sweep()
        with self._lock:
            self._counters["swept_leases"] += reclaimed
        return reclaimed

    # -- introspection ---------------------------------------------------------

    def health(self) -> Dict[str, object]:
        with self._lock:
            artifacts = len(self._artifacts)
        return {
            "ok": True,
            "artifacts": artifacts,
            "leases": len(self.leases),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }

    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters)
            artifacts = len(self._artifacts)
            stored_bytes = sum(len(blob) for blob in self._artifacts.values())
        return {
            "artifacts": artifacts,
            "stored_bytes": stored_bytes,
            "leases": len(self.leases),
            "root": self.root,
            "counters": counters,
        }

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Bind the listener (resolving ``--port=0``) and serve in a
        daemon thread; :meth:`stop` shuts it down."""
        self._started_at = time.monotonic()
        httpd = _ArtifactdHTTPServer((self.host, self.port), _Handler)
        httpd.artifactd = self
        self.port = httpd.server_address[1]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="artifactd",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ArtifactServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
