"""The async update server: HTTP/1.1 over asyncio, stdlib only.

One :class:`UpdateServer` serves one :class:`~repro.serving.service.
ServiceSpec`.  The event loop owns admission, routing, and health;
every engine computation runs off-loop on the
:class:`~repro.serving.session.AsyncSession`'s bounded executor, so
``/healthz`` answers while a cold compile is still in progress.

Routes (all JSON):

* ``POST /submit-update`` -- parse, admit, queue.  Replies ``202``
  with a ticket id, or the final outcome when the request set
  ``wait``.  Shedding replies ``503`` with a ``Retry-After`` header.
* ``GET /get-outcome?id=...`` -- poll a ticket: ``202`` while queued
  or running, the recorded reply once finished, ``404`` for ids the
  bounded outcome board no longer (or never) held.
* ``GET /stats`` -- admission counters, engine stats, server info.
* ``GET /healthz`` -- cheap liveness: never touches the executor.

Failure mapping is exhaustive and typed: overload and open circuits
are ``503``, blown deadlines ``504``, malformed requests ``400``,
formal rejections travel inside a ``200`` outcome, other typed
failures are ``422``, and anything unexpected is a counted ``500``
that leaves the server serving.

Shutdown is a *drain*: ``request_drain()`` (wired to SIGTERM by
``python -m repro.serving``) stops admission, lets queued and
in-flight work finish inside the configured drain budget, and
produces a report stating -- honestly -- whether anything was
dropped.  The ``server.drain`` fault point fires inside the drain
itself; an injected fault there is absorbed into the report, because
a shutdown path that can wedge is worse than one that can hurry.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.engine.engine import Engine, UpdateOutcome
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    RequestProtocolError,
    ServerOverloadedError,
)
from repro.resilience.faults import fault_check
from repro.serving.admission import AdmissionController, Ticket
from repro.serving.protocol import outcome_to_wire, parse_update_request
from repro.serving.service import ServiceSpec
from repro.serving.session import AsyncSession
from repro.settings import (
    SERVER_DEADLINE_MS,
    SERVER_DRAIN_MS,
    SERVER_MAX_INFLIGHT,
    SERVER_QUEUE_DEPTH,
    read,
)

__all__ = ["Reply", "UpdateServer"]

#: A finished HTTP exchange: status, JSON body, extra headers.
Reply = Tuple[int, Dict[str, object], Dict[str, str]]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: How many finished tickets ``/get-outcome`` keeps replayable.
_OUTCOME_CAPACITY = 1024


def _error_reply(exc: BaseException) -> Reply:
    """Map an exception to its HTTP reply (see module docstring)."""
    headers: Dict[str, str] = {}
    if isinstance(exc, (ServerOverloadedError, CircuitOpenError)):
        status = 503
        seconds = max(1, math.ceil(exc.retry_after_ms / 1e3))
        headers["Retry-After"] = str(seconds)
    elif isinstance(exc, DeadlineExceededError):
        status = 504
    elif isinstance(exc, RequestProtocolError):
        status = 400
    elif isinstance(exc, ReproError):
        status = 422
    else:
        status = 500
    body: Dict[str, object] = {
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, ServerOverloadedError):
        body["queue"] = exc.queue
        body["retry_after_ms"] = round(exc.retry_after_ms, 3)
    return status, body, headers


class UpdateServer:
    """One served universe behind bounded admission (module docs)."""

    def __init__(
        self,
        spec: ServiceSpec,
        engine: Optional[Engine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: Optional[int] = None,
        queue_depth: Optional[int] = None,
        drain_ms: Optional[float] = None,
        deadline_ms: Optional[float] = None,
    ) -> None:
        self.max_inflight = read(
            SERVER_MAX_INFLIGHT, max_inflight, "UpdateServer"
        )
        self.queue_depth = read(
            SERVER_QUEUE_DEPTH, queue_depth, "UpdateServer"
        )
        self.drain_ms = read(SERVER_DRAIN_MS, drain_ms, "UpdateServer")
        self.default_deadline_ms = read(
            SERVER_DEADLINE_MS, deadline_ms, "UpdateServer"
        )
        self.spec = spec
        #: Declared arities, so an empty relation on the wire decodes
        #: as the empty relation of its schema (base) or view (target).
        self._base_arities = spec.schema.arities()
        self._view_arities = {
            view.name: view.mapping.target_arities() for view in spec.views
        }
        self.engine = engine if engine is not None else Engine()
        self.host = host
        self.port = port
        self.controller = AdmissionController(
            max_inflight=self.max_inflight,
            queue_depth=self.queue_depth,
            breaker=self.engine.breaker,
        )
        self.session = AsyncSession(
            self.engine,
            spec.schema,
            spec.assignment,
            spec.space_source,
            max_workers=self.max_inflight,
        )
        self._outcomes: "OrderedDict[str, Reply]" = OrderedDict()
        self._next_id = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._workers: List["asyncio.Task[None]"] = []
        self._warmup_task: Optional["asyncio.Task[None]"] = None
        self._warmed = asyncio.Event()
        self._warmup_error: Optional[BaseException] = None
        self._drain_requested = asyncio.Event()
        self._drain_report: Optional[Dict[str, object]] = None
        self._started_at = 0.0
        self.warmup_seconds: Optional[float] = None
        self.unexpected_errors = 0

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener, kick off warm-up, start the workers.

        Returns as soon as the socket is accepting: the cold compile
        runs in the background and queued requests wait for it, which
        is exactly what lets ``/healthz`` answer during warm-up.
        """
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._warmup_task = asyncio.create_task(self._warm())
        self._workers = [
            asyncio.create_task(self._worker())
            for _ in range(self.max_inflight)
        ]

    async def _warm(self) -> None:
        started = time.monotonic()
        try:
            await self.session.warmup(self.spec.views, self.spec.candidates)
        except Exception as exc:
            self._warmup_error = exc
        else:
            self.warmup_seconds = time.monotonic() - started
            # The warm-up just ran real derivation work end to end --
            # a far better Retry-After basis for a cold server than
            # the controller's built-in constant.
            self.controller.seed_service_ms(self.warmup_seconds * 1e3)
        finally:
            self._warmed.set()

    def request_drain(self) -> None:
        """Signal-handler entry point: begin a graceful shutdown."""
        self.controller.start_drain()
        self._drain_requested.set()

    async def drain_requested(self) -> None:
        """Block until someone called :meth:`request_drain`."""
        await self._drain_requested.wait()

    async def drain(self) -> Dict[str, object]:
        """Finish admitted work within the budget; report the truth.

        The ``server.drain`` fault point fires *inside* the drain;
        injected faults are absorbed into the report rather than
        raised, so chaos runs prove the shutdown path cannot wedge.
        """
        self.controller.start_drain()
        drain_fault: Optional[str] = None
        try:
            fault_check("server.drain")
        except Exception as exc:
            # Absorbed by design -- including InjectedFault, which is
            # deliberately not a ReproError: a fault during shutdown
            # must narrow the drain (report it), never wedge it.
            drain_fault = f"{type(exc).__name__}: {exc}"
        graceful = await self.controller.drained(self.drain_ms / 1e3)
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        report: Dict[str, object] = {
            "graceful": graceful,
            "drain_ms": self.drain_ms,
            "dropped_inflight": self.controller.inflight,
            "dropped_queued": self.controller.queued,
            "drain_fault": drain_fault,
            "admission": self.controller.snapshot(),
            "unexpected_errors": self.unexpected_errors,
        }
        self._drain_report = report
        return report

    async def stop(self) -> None:
        """Close the listener and release every resource."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._warmup_task is not None:
            self._warmup_task.cancel()
            await asyncio.gather(self._warmup_task, return_exceptions=True)
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        # Off-loop: a synchronous close() would park the loop thread on
        # shutdown(wait=True) until the last in-flight build finishes,
        # freezing concurrent connections mid-drain.
        await self.session.aclose()

    # -- the worker side -------------------------------------------------------

    async def _worker(self) -> None:
        await self._warmed.wait()
        if self._warmup_error is not None:
            return
        while True:
            ticket = await self.controller.next_ticket()
            if ticket is None:
                return
            started = time.monotonic()
            serviced = False
            try:
                remaining = ticket.deadline_ms
                if remaining is not None:
                    waited_ms = (started - ticket.admitted_at) * 1e3
                    remaining -= waited_ms
                outcome = await self.session.update(
                    ticket.request.view,
                    ticket.request.base,
                    ticket.request.target,
                    remaining,
                )
            except ReproError as exc:
                self._finish(ticket, _error_reply(exc))
            except Exception as exc:
                # The last line of defence: count it, keep serving.
                self.unexpected_errors += 1
                self._finish(ticket, _error_reply(exc))
            else:
                serviced = True
                self._finish(ticket, self._outcome_reply(ticket, outcome))
            finally:
                self.controller.task_done(
                    serviced, time.monotonic() - started
                )

    def _outcome_reply(
        self, ticket: Ticket, outcome: UpdateOutcome
    ) -> Reply:
        body: Dict[str, object] = {
            "id": ticket.request_id,
            "status": "done",
            "outcome": outcome_to_wire(outcome),
        }
        return 200, body, {}

    def _finish(self, ticket: Ticket, reply: Reply) -> None:
        self._record(ticket.request_id, reply)
        if not ticket.future.done():
            ticket.future.set_result(reply)

    def _record(self, request_id: str, reply: Reply) -> None:
        self._outcomes[request_id] = reply
        self._outcomes.move_to_end(request_id)
        while len(self._outcomes) > _OUTCOME_CAPACITY:
            self._outcomes.popitem(last=False)

    # -- routing ---------------------------------------------------------------

    async def _route(self, method: str, target: str, body: bytes) -> Reply:
        path, _, query = target.partition("?")
        if method == "POST" and path == "/submit-update":
            return await self._submit(body)
        if method == "GET" and path == "/get-outcome":
            return self._get_outcome(query)
        if method == "GET" and path == "/stats":
            return await self._stats()
        if method == "GET" and path == "/healthz":
            return self._healthz()
        return (
            404,
            {"error": "NotFound", "message": f"no route {method} {path}"},
            {},
        )

    async def _submit(self, body: bytes) -> Reply:
        if self._warmup_error is not None:
            return (
                503,
                {
                    "error": type(self._warmup_error).__name__,
                    "message": "server warm-up failed:"
                    f" {self._warmup_error}",
                },
                {},
            )
        try:
            request = parse_update_request(
                body, self._base_arities, self._view_arities
            )
        except RequestProtocolError as exc:
            return _error_reply(exc)
        deadline_ms = (
            request.deadline_ms
            if request.deadline_ms is not None
            else self.default_deadline_ms
        )
        ticket = Ticket(
            request_id=f"r{self._next_id:08d}",
            request=request,
            deadline_ms=deadline_ms,
        )
        self._next_id += 1
        try:
            self.controller.admit(ticket)
        except ReproError as exc:
            return _error_reply(exc)
        queued: Reply = (
            202,
            {"id": ticket.request_id, "status": "queued"},
            {},
        )
        self._record(ticket.request_id, queued)
        if not request.wait:
            return queued
        reply = await ticket.future
        return reply

    def _get_outcome(self, query: str) -> Reply:
        request_id = ""
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == "id":
                request_id = value
        if not request_id:
            return (
                400,
                {
                    "error": "RequestProtocolError",
                    "message": "get-outcome requires ?id=<ticket id>",
                },
                {},
            )
        reply = self._outcomes.get(request_id)
        if reply is None:
            return (
                404,
                {
                    "error": "NotFound",
                    "message": f"no recorded outcome for {request_id!r}"
                    " (unknown id, or evicted from the bounded"
                    " outcome board)",
                },
                {},
            )
        return reply

    async def _stats(self) -> Reply:
        body: Dict[str, object] = {
            "service": self.spec.name,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "warmed": self._warmed.is_set()
            and self._warmup_error is None,
            "warmup_seconds": self.warmup_seconds,
            "unexpected_errors": self.unexpected_errors,
            "admission": self.controller.snapshot(),
            "engine": await self.session.stats(),
        }
        return 200, body, {}

    def _healthz(self) -> Reply:
        if self._warmup_error is not None:
            status = "failed"
            code = 503
        elif self.controller.draining:
            status = "draining"
            code = 503
        elif not self._warmed.is_set():
            status = "warming"
            code = 200
        else:
            status = "ok"
            code = 200
        body: Dict[str, object] = {
            "status": status,
            "queued": self.controller.queued,
            "inflight": self.controller.inflight,
            "engine": self.engine.health(),
        }
        return code, body, {}

    # -- the HTTP/1.1 loop -----------------------------------------------------

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                keep_alive = await self._serve_one(reader, writer)
                if not keep_alive:
                    break
        # reprolint: disable=RL008 -- the peer hung up mid-exchange; there is no one left to answer
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            # reprolint: disable=RL008 -- closing an already-reset socket is best-effort teardown
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_one(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Read one request, write one reply; ``False`` ends the
        connection (EOF, malformed framing, or ``Connection: close``).
        """
        request_line = await reader.readline()
        if not request_line:
            return False
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            await self._respond(
                writer,
                (
                    400,
                    {
                        "error": "RequestProtocolError",
                        "message": "malformed HTTP request line",
                    },
                    {},
                ),
                keep_alive=False,
            )
            return False
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            await self._respond(
                writer,
                (
                    400,
                    {
                        "error": "RequestProtocolError",
                        "message": f"bad Content-Length {raw_length!r}",
                    },
                    {},
                ),
                keep_alive=False,
            )
            return False
        body = await reader.readexactly(length) if length > 0 else b""
        try:
            reply = await self._route(method, target, body)
        except Exception as exc:
            # Route handlers map their own failures; anything that
            # still escapes is counted and answered as a 500 -- the
            # connection (and the server) keep going.
            self.unexpected_errors += 1
            reply = _error_reply(exc)
        keep_alive = headers.get("connection", "").lower() != "close"
        await self._respond(writer, reply, keep_alive=keep_alive)
        return keep_alive

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        reply: Reply,
        keep_alive: bool,
    ) -> None:
        status, body, extra = reply
        payload = json.dumps(body).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + payload)
        await writer.drain()
