"""The ``serve`` workload: ``python -m repro.serving`` under an open
loop, then a closed loop, over HTTP/1.1 keep-alive connections.

The server runs its default service (the 64-state ABCD chain, views
``Γ°AB``, ``Γ°BCD`` and ``Γ_ABD``).  The request stream covers every
legal base state through every view in each pass (see
:func:`universe.covering_stream`).  Load comes from this process: at
most two threads and two connections.

* Set-up is repeated :data:`SETUPS` times per run: spawn the server,
  wait for ``/healthz`` to say ``ok`` (``ready_s``), replay one warm-up
  pass over one connection, and stop all but the last server.
* Open loop: one request every ``1 / OPEN_RATE`` seconds, alternating
  the two connections (pipelined, so a send never waits for a reply).
  Latency is timed from each request's due time; the generator's
  lateness is reported.
* Paired closed loop: two threads, one connection each, each sending
  its next request as soon as the previous reply arrives (capacity).
* Single closed loop: this thread and one connection, so one request
  is in flight at a time.  The gated ``update_ms`` is this loop's
  median latency: with two requests in flight the client's threads,
  the server's event loop and its workers are more runnable threads
  than the two vCPUs, and the open-loop and paired figures then swing
  with the host's load (see README.md).

In a traced run the server is started through ``serve_launcher.py``,
which installs the span wrappers and then calls the server's own
``main``.
"""

from __future__ import annotations

import json
import random
import selectors
import signal
import socket
import sys
import threading
import time
from collections import deque
from statistics import fmean
from typing import Any, Deque, Dict, List, Optional, Tuple

import universe as uv
from common import (
    BenchError,
    Child,
    median,
    metric,
    layer_table,
    percentile,
    python_child,
    spawned,
    workdir,
)

SIZES = (2, 1, 2, 1)
SETUPS = 5
OPEN_RATE = 250.0
#: Each run alternates this many windows of the three loops, so every
#: loop samples the whole run rather than one part of it.
WINDOWS = 5
#: Each window's share of the run per loop: open, paired, single.
SHARES = (0.15, 0.15, 0.7)
#: Distinct rounds in the stream; each is one covering pass plus the
#: fixed known-fault requests, and every phase sends whole rounds.
PASSES = 4

Response = Tuple[int, bytes]


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()

    def close(self) -> None:
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def feed(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise BenchError("server closed the connection")
        self.buffer += chunk

    def pop(self) -> Optional[Response]:
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self.buffer[:end]).decode("latin-1").split("\r\n")
        status = int(head[0].split(" ", 2)[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        if len(self.buffer) < total:
            return None
        body = bytes(self.buffer[end + 4 : total])
        del self.buffer[:total]
        return status, body

    def roundtrip(self, data: bytes) -> Response:
        self.send(data)
        while True:
            response = self.pop()
            if response is not None:
                return response
            self.feed()

    def get_json(self, path: str) -> Dict[str, Any]:
        status, body = self.roundtrip(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
        )
        if status != 200:
            raise BenchError(f"GET {path} answered {status}")
        return json.loads(body)


def post(body: bytes) -> bytes:
    head = (
        "POST /submit-update HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


class Served:
    """One spawned server process."""

    def __init__(self, child: Child, spawned_at: float) -> None:
        self.child = child
        first = child.read_json(60)
        if not first.get("serving"):
            raise BenchError(f"server readiness line: {first}")
        self.port = int(first["port"])
        probe = Connection(self.port)
        try:
            while probe.get_json("/healthz")["status"] != "ok":
                time.sleep(0.002)
        finally:
            probe.close()
        self.ready_s = time.monotonic() - spawned_at

    def stop(self) -> Dict[str, Any]:
        self.child.proc.send_signal(signal.SIGTERM)
        report = self.child.read_json(30)
        if self.child.wait(30) != 0 or not report.get("drain", {}).get("graceful"):
            raise BenchError(f"server drain was not graceful: {report}")
        return report


def closed_loop(
    conns: List[Connection],
    bodies: List[bytes],
    duration: float = 0.0,
    limit: Optional[int] = None,
    round_len: int = 1,
) -> Tuple[List[Tuple[int, float, float, Response]], float]:
    """One worker per connection (this thread and one more per extra
    connection), sending whole rounds of *round_len* requests until
    *duration* has passed, or *limit* requests in all."""
    results: List[List[Tuple[int, float, float, Response]]] = [[] for _ in conns]
    errors: List[BaseException] = []
    started = time.monotonic()
    deadline = started + duration
    lock = threading.Lock()
    issued = [0]

    def take() -> Optional[int]:
        with lock:
            i = issued[0]
            if limit is not None:
                if i >= limit:
                    return None
            elif i % round_len == 0 and time.monotonic() >= deadline:
                return None
            issued[0] = i + 1
            return i

    def work(c: int) -> None:
        try:
            while True:
                i = take()
                if i is None or errors:
                    return
                sent = time.monotonic()
                response = conns[c].roundtrip(bodies[i % len(bodies)])
                results[c].append((i % len(bodies), sent, time.monotonic(), response))
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    others = [threading.Thread(target=work, args=(c,)) for c in range(1, len(conns))]
    for other in others:
        other.start()
    work(0)
    for other in others:
        other.join(duration + 60)
    if errors:
        raise BenchError(f"closed loop: {errors[0]!r}")
    merged = [r for worker in results for r in worker]
    last = max(r[2] for r in merged)
    return merged, last - started


def open_loop(
    conns: List[Connection],
    bodies: List[bytes],
    rate: float,
    count: int,
    first: int = 0,
) -> List[Tuple[int, float, float, float, Response]]:
    """*count* fixed-rate sends on a schedule, from body *first* on; a
    receiver thread reads the replies.

    Returns ``(body index, due, sent, received, response)`` per request.
    """
    interval = 1.0 / rate
    due = [0.0] * count
    sent = [0.0] * count
    received = [0.0] * count
    responses: List[Optional[Response]] = [None] * count
    pending: List[Deque[int]] = [deque(), deque()]
    errors: List[BaseException] = []
    done = threading.Event()

    def receive() -> None:
        selector = selectors.DefaultSelector()
        for c, conn in enumerate(conns):
            selector.register(conn.sock, selectors.EVENT_READ, c)
        got = 0
        try:
            while got < count:
                events = selector.select(timeout=30)
                if not events:
                    raise BenchError("open loop: no reply within 30s")
                for key, _ in events:
                    conn = conns[key.data]
                    conn.feed()
                    while True:
                        response = conn.pop()
                        if response is None:
                            break
                        i = pending[key.data].popleft()
                        received[i] = time.monotonic()
                        responses[i] = response
                        got += 1
        except BaseException as exc:
            errors.append(exc)
        finally:
            selector.close()
            done.set()

    receiver = threading.Thread(target=receive)
    receiver.start()
    start = time.monotonic() + 0.01
    for i in range(count):
        due[i] = start + i * interval
        delay = due[i] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        c = i % 2
        pending[c].append(i)
        sent[i] = time.monotonic()
        conns[c].send(bodies[(first + i) % len(bodies)])
        if errors:
            break
    done.wait(60)
    receiver.join(60)
    if errors:
        raise BenchError(f"open loop: {errors[0]!r}")
    return [
        ((first + i) % len(bodies), due[i], sent[i], received[i], responses[i])  # type: ignore[misc]
        for i in range(count)
    ]


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    universe = uv.abcd_universe("abcd-chain-small", SIZES)
    oracle = uv.ConstantComplementOracle(universe, uv.served_views(universe))
    rng = random.Random(seed)
    faults = uv.wire_fault_requests(oracle)
    warmup = uv.covering_stream(oracle, rng)
    requests: List[uv.Request] = []
    for _ in range(PASSES):
        requests.extend(uv.covering_stream(oracle, rng) + faults)
    round_len = len(requests) // PASSES
    warm_bodies = [post(uv.request_body(oracle, r)) for r in warmup]
    bodies = [post(uv.request_body(oracle, r)) for r in requests]
    open_s, paired_s, single_s = (seconds / WINDOWS * share for share in SHARES)
    open_count = max(1, round(OPEN_RATE * open_s / round_len)) * round_len

    ready: List[float] = []
    setups: List[float] = []
    opened: List[List[Tuple[int, float, float, float, Response]]] = []
    paired: List[Tuple[List[Tuple[int, float, float, Response]], float]] = []
    single: List[Tuple[List[Tuple[int, float, float, Response]], float]] = []
    with workdir() as work:
        spans_path = work / "spans.json"
        for attempt in range(SETUPS):
            if trace:
                args = python_child(
                    "serve_launcher.py", str(spans_path), "--port=0"
                )
            else:
                args = [sys.executable, "-m", "repro.serving", "--port=0"]
            spawned_at = time.monotonic()
            with spawned(args, work, f"server{attempt}") as child:
                served = Served(child, spawned_at)
                ready.append(served.ready_s)
                conns = [Connection(served.port), Connection(served.port)]
                try:
                    closed_loop(conns[:1], warm_bodies, limit=len(warm_bodies))
                    setups.append(time.monotonic() - spawned_at)
                    if attempt < SETUPS - 1:
                        served.stop()
                        continue
                    before = conns[0].get_json("/stats")
                    for window in range(WINDOWS):
                        opened.append(
                            open_loop(
                                conns, bodies, OPEN_RATE, open_count,
                                window * open_count,
                            )
                        )
                        paired.append(
                            closed_loop(
                                conns, bodies, paired_s, round_len=round_len
                            )
                        )
                        single.append(
                            closed_loop(
                                conns[:1], bodies, single_s, round_len=round_len
                            )
                        )
                    after = conns[0].get_json("/stats")
                finally:
                    for conn in conns:
                        conn.close()
                served.stop()
                spans = (
                    json.loads(spans_path.read_text()) if trace else None
                )

    report = _report(
        universe, oracle, requests, opened, paired, single, ready, setups
    )
    report.update(workload="serve", seed=seed, seconds=seconds, trace=int(trace))
    if spans is not None:
        report["layers"] = _layers(
            spans, report.pop("single_rids"), report.pop("client_s"),
            before, after,
        )
    else:
        report.pop("single_rids")
        report.pop("client_s")
    return report


def _outcome(response: Response) -> Tuple[bool, Optional[Dict[str, Any]], Optional[str]]:
    """``(operation ok, outcome, request id)`` of one reply."""
    status, body = response
    if status != 200:
        return False, None, None
    data = json.loads(body)
    if data.get("status") != "done":
        return False, None, None
    return True, data["outcome"], data.get("id")


def _report(
    universe: uv.ChainUniverse,
    oracle: uv.ConstantComplementOracle,
    requests: List[uv.Request],
    opened: List[List[Tuple[int, float, float, float, Response]]],
    paired: List[Tuple[List[Tuple[int, float, float, Response]], float]],
    single: List[Tuple[List[Tuple[int, float, float, Response]], float]],
    ready: List[float],
    setups: List[float],
) -> Dict[str, Any]:
    failed = wrong = 0
    errors: List[str] = []
    client_s: Dict[str, float] = {}
    single_rids = set()

    def check(index: int, response: Response, elapsed: float) -> Optional[str]:
        """Account for one reply; its request id when it answered."""
        nonlocal failed, wrong
        ok, outcome, rid = _outcome(response)
        if not ok or outcome is None:
            failed += 1
            return None
        after = outcome.get("base_after")
        rows = uv.rows_from_json(after[universe.relation]) if after else None
        request = requests[index]
        problem = uv.check_outcome(
            oracle, request.expect, outcome["accepted"], outcome["reason"], rows
        )
        if problem is not None and request.kind == "known-fault":
            failed += 1
        elif problem is not None:
            wrong += 1
            if len(errors) < 5:
                errors.append(f"{request.kind} on {request.view}: {problem}")
        if rid is not None:
            client_s[rid] = elapsed
        return rid

    latencies: List[float] = []
    lateness: List[float] = []
    for window in opened:
        for index, due, sent, received, response in window:
            latencies.append((received - due) * 1e3)
            lateness.append((sent - due) * 1e3)
            check(index, response, received - sent)

    def closed_ms(
        loop: List[Tuple[List[Tuple[int, float, float, Response]], float]],
        rids: Optional[set] = None,
    ) -> Tuple[List[float], float]:
        """Latencies (ms) of a closed loop's replies, and its rate."""
        values = []
        for window, _elapsed in loop:
            for index, sent, received, response in window:
                rid = check(index, response, received - sent)
                if rids is not None and rid is not None:
                    rids.add(rid)
                values.append((received - sent) * 1e3)
        return values, len(values) / sum(elapsed for _, elapsed in loop)

    paired_ms, capacity = closed_ms(paired)
    single_ms, single_rate = closed_ms(single, single_rids)
    errors.extend(_structure(universe))
    attempted = len(latencies) + len(paired_ms) + len(single_ms)
    return {
        "correct": wrong == 0 and not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "update_ms": metric(
                percentile(single_ms, 0.5), "ms", samples=len(single_ms)
            ),
            "ready_s": metric(fmean(ready), "s", samples=len(ready)),
            "setup_s": metric(median(setups), "s", samples=len(setups)),
        },
        "figures": {
            "serve_p50_ms": metric(
                percentile(latencies, 0.5), "ms", samples=len(latencies)
            ),
            "serve_p90_ms": metric(
                percentile(latencies, 0.9), "ms", samples=len(latencies)
            ),
            "serve_p99_ms": metric(
                percentile(latencies, 0.99), "ms", samples=len(latencies)
            ),
            "serve_open_mean_ms": metric(
                fmean(latencies), "ms", samples=len(latencies)
            ),
            "serve_capacity_rps": metric(
                capacity, "1/s", samples=len(paired_ms)
            ),
            "open_rate_rps": metric(OPEN_RATE, "1/s"),
            "generator_lateness_p99_ms": metric(
                percentile(lateness, 0.99), "ms", samples=len(lateness)
            ),
            "generator_lateness_max_ms": metric(max(lateness), "ms"),
            "paired_p50_ms": metric(
                percentile(paired_ms, 0.5), "ms", samples=len(paired_ms)
            ),
            "single_mean_ms": metric(
                fmean(single_ms), "ms", samples=len(single_ms)
            ),
            "single_rps": metric(single_rate, "1/s", samples=len(single_ms)),
            "single_p99_ms": metric(
                percentile(single_ms, 0.99), "ms", samples=len(single_ms)
            ),
            "server_ready_s": metric(fmean(ready), "s", all=ready),
        },
        "accounting": {
            "open_attempted": len(latencies),
            "paired_attempted": len(paired_ms),
            "single_attempted": len(single_ms),
            "wrong_answers": wrong,
        },
        "single_rids": single_rids,
        "client_s": client_s,
    }


def _structure(universe: uv.ChainUniverse) -> List[str]:
    """|LDB|, the closed-form states and the algebra of the service."""
    from repro.engine.engine import Engine
    from repro.serving.service import chain_service
    from repro.typealgebra.algebra import NULL

    spec = chain_service()
    problems = []
    names = [v.name for v in spec.views]
    if names != [v.name for v in uv.served_views(universe)]:
        problems.append(f"served views {names}")
    chain: Any = spec.space_source
    if tuple(tuple(sorted(d)) for d in chain.domains) != universe.domains:
        problems.append("served chain domains differ from the oracle's")
    engine = Engine()
    space = engine.space_from(chain)
    session = engine.session(spec.schema, spec.assignment, space)
    for view in spec.views:
        session.register_view(view)
    algebra = session.build_component_algebra(spec.candidates)
    states = {
        frozenset(
            tuple(None if v is NULL else v for v in row)
            for row in s.relation(universe.relation).rows
        )
        for s in space.states
    }
    if len(space) != universe.state_count():
        problems.append(f"|LDB| {len(space)} != {universe.state_count()}")
    if states != {universe.rows(e) for e in universe.states()}:
        problems.append("LDB differs from the closed-form states")
    k = universe.width
    if (len(algebra), len(algebra.atoms())) != (1 << (k - 1), k - 1) or not algebra.is_boolean():
        problems.append(f"algebra {algebra!r} is not the Boolean 2^{k - 1}")
    return problems


def _layers(
    spans: List[Any],
    rids: set,
    client_s: Dict[str, float],
    before: Dict[str, Any],
    after: Dict[str, Any],
) -> Dict[str, Dict[str, Any]]:
    """Per-layer values of the single-loop requests, from the server's
    spans; lookups per update count every measured request."""
    from tracing import build_layers, build_split, self_times, totals, update_layers

    selfs = self_times([tuple(s) for s in spans])
    inclusive = {
        i: s[2] - s[1] for i, s in enumerate(spans)
    }
    measured = [s for s in selfs if s[2] in rids]
    per_request: Dict[str, Dict[str, float]] = {}
    for i, (name, own, rid, _start) in enumerate(selfs):
        if rid not in rids:
            continue
        entry = per_request.setdefault(rid, {})
        if name == "serving.session.update":
            entry["session_total"] = entry.get("session_total", 0.0) + inclusive[i]
        entry[name] = entry.get(name, 0.0) + own
    n = max(len(per_request), 1)

    def mean(*names: str) -> float:
        return sum(sum(e.get(x, 0.0) for x in names) for e in per_request.values()) / n * 1e6

    server_parts = (
        "serving.protocol.parse",
        "serving.admission.wait",
        "serving.protocol.encode",
        "serving.protocol.json",
    )
    other = [
        client_s[rid] - sum(e.get(x, 0.0) for x in server_parts) - e.get("session_total", 0.0)
        for rid, e in per_request.items()
        if rid in client_s
    ]

    def hits(stats: Dict[str, Any]) -> int:
        return sum(v.get("hits", 0) for v in stats["engine"]["artifacts"]["memory"].values())

    builds = sum(
        v.get("builds", 0) for v in before["engine"]["artifacts"]["memory"].values()
    )
    values: Dict[str, float] = {
        "serving.protocol.parse_us": mean("serving.protocol.parse"),
        "serving.protocol.encode_us": mean("serving.protocol.encode", "serving.protocol.json"),
        "serving.admission.wait_us": mean("serving.admission.wait"),
        "serving.session.hop_us": mean("serving.session.update"),
        "serving.server.other_us": sum(other) / max(len(other), 1) * 1e6,
        "engine.store.lookups_per_update": (hits(after) - hits(before))
        / max(len(client_s), 1),
        "engine.store.builds": float(builds),
        "engine.store.disk_hits": 0.0,
        "engine.store.load_ms": 0.0,
    }
    values.update(update_layers(totals(measured), len(per_request)))
    values.update(
        build_layers(build_split([tuple(s) for s in spans]), 1)
    )
    for name in ("put_ms", "put_bytes", "put_calls", "lease_ms", "get_ms", "get_bytes", "get_calls"):
        values[f"engine.backends.{name}"] = 0.0
    return layer_table(values)
