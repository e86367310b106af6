"""A stdlib client and threaded load generator for the update server.

:class:`ServingClient` is a thin ``http.client`` wrapper -- one
keep-alive connection, JSON in, JSON out, never raises on HTTP error
statuses (overload replies *are* the data the caller wants).  It is
deliberately **not** thread-safe: the load generator gives each client
thread its own instance, which also makes the measured concurrency
honest (N threads = N connections).

:func:`run_load` drives a server with ``clients`` concurrent threads
replaying a request mix for ``duration_s`` seconds and folds every
reply into a :class:`LoadReport`: throughput, p50/p99 latency of the
*serviced* requests, and exact counts of how the rest were refused
(typed 503 sheds, 504 deadlines, anything else).  The benchmarks and
the CI smoke assert overload behaviour from these counts -- a saturated
server must refuse with 503s, not crash, wedge, or queue without
bound.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.serving.protocol import UpdateRequest, request_to_wire

__all__ = ["LoadReport", "Reply", "ServingClient", "percentile", "run_load"]


@dataclass(frozen=True)
class Reply:
    """One HTTP exchange: status, decoded body, retry hint if any."""

    status: int
    body: Dict[str, object]
    retry_after_s: Optional[float] = None


class ServingClient:
    """One keep-alive JSON connection to an update server."""

    def __init__(
        self, host: str, port: int, timeout_s: float = 30.0
    ) -> None:
        self._conn = http.client.HTTPConnection(
            host, port, timeout=timeout_s
        )

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
    ) -> Reply:
        body = None if payload is None else json.dumps(payload)
        self._conn.request(
            method,
            path,
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = self._conn.getresponse()
        raw = response.read()
        try:
            decoded = json.loads(raw) if raw else {}
        except ValueError as exc:
            raise ReproError(
                f"server reply to {method} {path} is not JSON:"
                f" {raw[:120]!r}"
            ) from exc
        retry_after = response.getheader("Retry-After")
        return Reply(
            status=response.status,
            body=decoded if isinstance(decoded, dict) else {"raw": decoded},
            retry_after_s=float(retry_after) if retry_after else None,
        )

    # -- the routes ------------------------------------------------------------

    def submit(
        self, request: UpdateRequest, wait: Optional[bool] = None
    ) -> Reply:
        wire = request_to_wire(request)
        if wait is not None:
            wire["wait"] = wait
        return self.request("POST", "/submit-update", wire)

    def get_outcome(self, request_id: str) -> Reply:
        return self.request("GET", f"/get-outcome?id={request_id}")

    def stats(self) -> Reply:
        return self.request("GET", "/stats")

    def healthz(self) -> Reply:
        return self.request("GET", "/healthz")

    def close(self) -> None:
        self._conn.close()


# -- load generation ------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (nearest-rank); ``0.0`` for no samples."""
    if not samples:
        return 0.0
    ranked = sorted(samples)
    rank = min(len(ranked) - 1, max(0, int(q / 100.0 * len(ranked))))
    return ranked[rank]


@dataclass
class LoadReport:
    """What a load-generation run observed, JSON-ready."""

    clients: int = 0
    duration_s: float = 0.0
    requests: int = 0
    serviced: int = 0
    accepted: int = 0
    rejected_formal: int = 0
    shed_503: int = 0
    deadline_504: int = 0
    other_errors: int = 0
    honored_waits: int = 0
    honored_wait_s: float = 0.0
    statuses: Dict[int, int] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.serviced / self.duration_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "clients": self.clients,
            "duration_s": round(self.duration_s, 3),
            "requests": self.requests,
            "serviced": self.serviced,
            "accepted": self.accepted,
            "rejected_formal": self.rejected_formal,
            "shed_503": self.shed_503,
            "deadline_504": self.deadline_504,
            "other_errors": self.other_errors,
            "honored_waits": self.honored_waits,
            "honored_wait_s": round(self.honored_wait_s, 3),
            "statuses": {
                str(status): count
                for status, count in sorted(self.statuses.items())
            },
            "throughput_rps": round(self.throughput_rps, 1),
            "p50_ms": round(percentile(self.latencies_ms, 50), 3),
            "p99_ms": round(percentile(self.latencies_ms, 99), 3),
        }

    def fold(self, status: int, body: Dict[str, object], ms: float) -> None:
        """Fold one reply into the counters (single-threaded use)."""
        self.requests += 1
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if status == 200:
            self.serviced += 1
            self.latencies_ms.append(ms)
            outcome = body.get("outcome")
            if isinstance(outcome, dict) and outcome.get("accepted"):
                self.accepted += 1
            else:
                self.rejected_formal += 1
        elif status == 503:
            self.shed_503 += 1
        elif status == 504:
            self.deadline_504 += 1
        else:
            self.other_errors += 1


def _merge(reports: Sequence[LoadReport], duration_s: float) -> LoadReport:
    total = LoadReport(clients=len(reports), duration_s=duration_s)
    for report in reports:
        total.requests += report.requests
        total.serviced += report.serviced
        total.accepted += report.accepted
        total.rejected_formal += report.rejected_formal
        total.shed_503 += report.shed_503
        total.deadline_504 += report.deadline_504
        total.other_errors += report.other_errors
        total.honored_waits += report.honored_waits
        total.honored_wait_s += report.honored_wait_s
        total.latencies_ms.extend(report.latencies_ms)
        for status, count in report.statuses.items():
            total.statuses[status] = total.statuses.get(status, 0) + count
    return total


def run_load(
    host: str,
    port: int,
    requests: Sequence[UpdateRequest],
    clients: int = 4,
    duration_s: float = 3.0,
    deadline_ms: Optional[float] = None,
    retry_after_cap_s: float = 0.25,
) -> LoadReport:
    """Drive the server with *clients* threads for *duration_s* seconds.

    Each thread owns one connection and replays *requests* round-robin
    with ``wait=true`` (the reply latency is the full queue + service
    time).  Shed requests (503) are counted and, when the refusal
    carries a ``Retry-After`` hint, honoured: the thread sleeps
    ``min(hint, retry_after_cap_s, time left in the run)`` before its
    next request, like a well-behaved client under backpressure.  The
    cap keeps one generous hint from idling a load thread for the
    whole run; honoured waits are counted in the report so benchmarks
    can show the backoff actually happened.
    """
    if not requests:
        raise ReproError("run_load needs at least one request to replay")
    if clients < 1:
        raise ReproError(f"run_load needs at least one client, got {clients}")
    wired = [
        UpdateRequest(
            view=request.view,
            base=request.base,
            target=request.target,
            priority=request.priority,
            deadline_ms=deadline_ms
            if deadline_ms is not None
            else request.deadline_ms,
            wait=True,
        )
        for request in requests
    ]
    reports = [LoadReport() for _ in range(clients)]
    errors: List[Tuple[int, str]] = []
    started = threading.Event()

    def body(index: int) -> None:
        client = ServingClient(host, port)
        report = reports[index]
        started.wait()
        deadline = time.monotonic() + duration_s
        turn = index
        try:
            while time.monotonic() < deadline:
                request = wired[turn % len(wired)]
                turn += 1
                t0 = time.perf_counter()
                reply = client.submit(request)
                ms = (time.perf_counter() - t0) * 1e3
                report.fold(reply.status, reply.body, ms)
                if reply.status == 503 and reply.retry_after_s:
                    pause = min(
                        reply.retry_after_s,
                        retry_after_cap_s,
                        max(0.0, deadline - time.monotonic()),
                    )
                    if pause > 0:
                        report.honored_waits += 1
                        report.honored_wait_s += pause
                        time.sleep(pause)
        finally:
            client.close()

    threads = []
    for index in range(clients):
        thread = threading.Thread(
            target=lambda i=index: _guarded_body(body, i, errors),
            name=f"load-gen-{index}",
        )
        # Register before starting: if a later start() raises (thread
        # limits), the join loop below still reaps the ones that ran.
        threads.append(thread)
        thread.start()
    wall = time.monotonic()
    started.set()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - wall
    if errors:
        index, message = errors[0]
        raise ReproError(
            f"load-generator thread {index} died: {message}"
            f" ({len(errors)} thread(s) failed in total)"
        )
    return _merge(reports, wall)


def _guarded_body(
    body: Callable[[int], None],
    index: int,
    errors: List[Tuple[int, str]],
) -> None:
    try:
        body(index)
    except Exception as exc:
        errors.append((index, f"{type(exc).__name__}: {exc}"))
