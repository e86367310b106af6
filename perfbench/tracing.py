"""Spans recorded from outside the program, and the per-layer figures
derived from them.

The traced run installs wrappers around public entry points of each
layer (module functions and class methods looked up at call time), so
the program itself is unmodified.  Each span records a name, a start,
an end, its parent and a request id; spans are kept in memory and
written out when the run ends.  A layer's self time is its span's
duration minus the durations of its child spans.

Three families of wrappers:

* **update path** -- ``Session.update`` is the root; the others
  (``Session.procedure_for``, ``UpdateProcedure.apply``,
  ``ComponentTranslator.apply``, ``View.apply``) record only inside it;
* **build** -- the ``Engine`` derivations, ``ArtifactStore.get_or_build``
  and ``bulkops.transpose_masks`` record only *outside* an update, so
  the per-update procedure lookup is never mistaken for a build;
* **serving** -- request parsing, outcome encoding (``outcome_to_wire``
  and the reply's JSON encoding), admission wait (from a ticket's
  admission to a worker taking it) and ``AsyncSession.update``.  The
  executor thread running ``Session.update`` is linked to its
  ``AsyncSession.update`` span through the request's base-state object.

:class:`TimedBackend` is the timing wrapper handed to
``Engine(backend=...)``; it is used in untraced runs too (it only
counts bytes and sums a few clock reads per call).
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

UPDATE_ROOT = "engine.session.update"

Span = List[Any]  # [name, start, end, parent span or None, request id]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._task_span: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._rid: contextvars.ContextVar[Optional[str]] = (
            contextvars.ContextVar("perfbench_rid", default=None)
        )
        self._parsed: Dict[int, Span] = {}
        self._by_base: Dict[int, Span] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self, name: str, start: float, end: float, rid: Optional[str] = None
    ) -> Span:
        span: Span = [name, start, end, None, rid]
        self.spans.append(span)
        return span

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        when: str = "always",
        link: Optional[Callable[..., Optional[Span]]] = None,
        rid_of: Optional[Callable[..., Optional[str]]] = None,
        after: Optional[Callable[[Span, Any, tuple], None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        *when* is ``"always"``, ``"update"`` (only inside an update) or
        ``"build"`` (only outside one).  *link* finds a parent span
        across threads; *rid_of* a request id from the arguments.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            in_update = bool(stack) and stack[0][0] == UPDATE_ROOT
            if (when == "update" and not in_update) or (
                when == "build" and in_update
            ):
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            if parent is None and link is not None:
                parent = link(*args, **kwargs)
            if parent is None:
                parent = tracer._task_span.get()
            rid = parent[4] if parent is not None else None
            if rid is None:
                rid = (
                    rid_of(*args, **kwargs)
                    if rid_of is not None
                    else tracer._rid.get()
                )
            span: Span = [name, time.monotonic(), 0.0, parent, rid]
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                stack.pop()
            if after is not None:
                after(span, result, args)
            return result

        setattr(owner, attr, wrapper)

    # -- installation ----------------------------------------------------------

    def install_update_path(self) -> None:
        from repro.core.constant_complement import ComponentTranslator
        from repro.core.procedure import UpdateProcedure
        from repro.engine.engine import Session
        from repro.views.view import View

        self.wrap(Session, "update", UPDATE_ROOT, link=self._link_base)
        self.wrap(
            Session, "procedure_for", "engine.session.procedure_for", "update"
        )
        self.wrap(UpdateProcedure, "apply", "core.procedure.apply", "update")
        self.wrap(
            ComponentTranslator,
            "apply",
            "core.constant_complement.apply",
            "update",
        )
        self.wrap(View, "apply", "views.view.apply", "update")

    def install_build(self) -> None:
        from repro.engine.engine import Engine
        from repro.engine.store import ArtifactStore
        from repro.kernel import bulkops

        for method in ("space_from", "poset", "analysis", "algebra", "procedure"):
            self.wrap(Engine, method, f"engine.engine.{method}", "build")
        self.wrap(
            ArtifactStore, "get_or_build", "engine.store.get_or_build", "build"
        )
        self.wrap(
            bulkops, "transpose_masks", "kernel.bulkops.transpose_masks", "build"
        )

    def install_serving(self) -> None:
        from repro.serving import server
        from repro.serving.admission import AdmissionController
        from repro.serving.session import AsyncSession

        tracer = self

        def remember_parse(span: Span, request: Any, args: tuple) -> None:
            tracer._parsed[id(request)] = span

        self.wrap(
            server,
            "parse_update_request",
            "serving.protocol.parse",
            after=remember_parse,
        )
        self.wrap(server, "outcome_to_wire", "serving.protocol.encode")
        encoder = types.SimpleNamespace(dumps=json.dumps, loads=json.loads)
        self.wrap(
            encoder,
            "dumps",
            "serving.protocol.json",
            rid_of=lambda body, *a, **k: body.get("id")
            if isinstance(body, dict)
            else None,
        )
        server.json = encoder  # type: ignore[attr-defined]

        admit = AdmissionController.admit

        def admit_wrapper(controller: Any, ticket: Any) -> None:
            admit(controller, ticket)
            span = tracer._parsed.pop(id(ticket.request), None)
            if span is not None:
                span[4] = ticket.request_id

        AdmissionController.admit = admit_wrapper  # type: ignore[method-assign]

        next_ticket = AdmissionController.next_ticket

        async def next_ticket_wrapper(controller: Any) -> Any:
            ticket = await next_ticket(controller)
            if ticket is not None:
                tracer.record(
                    "serving.admission.wait",
                    ticket.admitted_at,
                    time.monotonic(),
                    ticket.request_id,
                )
                tracer._rid.set(ticket.request_id)
            return ticket

        AdmissionController.next_ticket = next_ticket_wrapper  # type: ignore[method-assign]

        update = AsyncSession.update

        async def update_wrapper(
            session: Any, view_name: str, base: Any, *args: Any
        ) -> Any:
            span: Span = [
                "serving.session.update",
                time.monotonic(),
                0.0,
                None,
                tracer._rid.get(),
            ]
            tracer.spans.append(span)
            tracer._by_base[id(base)] = span
            token = tracer._task_span.set(span)
            try:
                return await update(session, view_name, base, *args)
            finally:
                span[2] = time.monotonic()
                tracer._task_span.reset(token)
                tracer._by_base.pop(id(base), None)

        AsyncSession.update = update_wrapper  # type: ignore[method-assign]

    def _link_base(self, session: Any, view_name: str, base: Any, *a: Any) -> Optional[Span]:
        return self._by_base.get(id(base))

    # -- output ------------------------------------------------------------------

    def records(self) -> List[Tuple[str, float, float, int, Optional[str]]]:
        """Spans with parents as indices (-1 for none)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            (
                name,
                start,
                end,
                index.get(id(parent), -1) if parent is not None else -1,
                rid,
            )
            for name, start, end, parent, rid in self.spans
        ]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records(), handle)


def self_times(
    records: List[Tuple[str, float, float, int, Optional[str]]],
) -> List[Tuple[str, float, Optional[str], float]]:
    """``(name, self seconds, request id, start)`` per span."""
    covered = [0.0] * len(records)
    for name, start, end, parent, rid in records:
        if parent >= 0:
            covered[parent] += end - start
    return [
        (name, (end - start) - covered[i], rid, start)
        for i, (name, start, end, parent, rid) in enumerate(records)
    ]


def totals(
    spans: List[Tuple[str, float, Optional[str], float]],
) -> Dict[str, Tuple[float, int]]:
    """Per span name: summed self seconds and span count."""
    out: Dict[str, Tuple[float, int]] = {}
    for span in spans:
        seconds, count = out.get(span[0], (0.0, 0))
        out[span[0]] = (seconds + span[1], count + 1)
    return out


#: Per-update layers: span name -> per-layer metric name.
UPDATE_LAYERS = {
    UPDATE_ROOT: "engine.engine.update_us",
    "engine.session.procedure_for": "engine.engine.lookup_us",
    "core.procedure.apply": "core.procedure.apply_us",
    "core.constant_complement.apply": "core.constant_complement.translate_us",
    "views.view.apply": "views.view.apply_us",
}

#: Cold-build split: span name -> per-layer metric name (seconds).
BUILD_LAYERS = {
    "engine.engine.space_from": "engine.engine.space_s",
    "engine.engine.poset": "engine.engine.poset_s",
    "engine.engine.analysis": "engine.engine.analysis_s",
    "engine.engine.algebra": "engine.engine.algebra_s",
    "engine.engine.procedure": "engine.engine.procedure_s",
}


def merge(parts: List[Dict[str, Any]]) -> Dict[str, Tuple[float, int]]:
    """Sum several :func:`totals` results (e.g. one per child)."""
    out: Dict[str, Tuple[float, int]] = {}
    for part in parts:
        for name, (seconds, count) in part.items():
            have = out.get(name, (0.0, 0))
            out[name] = (have[0] + seconds, have[1] + count)
    return out


def update_layers(
    sums: Dict[str, Tuple[float, int]], updates: int
) -> Dict[str, float]:
    """Mean self microseconds per update of each update-path layer."""
    return {
        metric: sums.get(name, (0.0, 0))[0] / max(updates, 1) * 1e6
        for name, metric in UPDATE_LAYERS.items()
    }


TRANSPOSE = "kernel.bulkops.transpose_masks"


def build_split(
    records: List[Tuple[str, float, float, int, Optional[str]]],
) -> Dict[str, Tuple[float, int]]:
    """Seconds and calls per build phase: each ``Engine`` derivation's
    whole span (the store lookup and the build inside it included)
    minus the transposes under it, and the transposes on their own --
    so the phases add up to the build."""
    out: Dict[str, Tuple[float, int]] = {}
    for i, (name, start, end, parent, _rid) in enumerate(records):
        if name in BUILD_LAYERS or name == TRANSPOSE:
            seconds, count = out.get(name, (0.0, 0))
            out[name] = (seconds + end - start, count + 1)
        if name != TRANSPOSE:
            continue
        while parent >= 0 and records[parent][0] not in BUILD_LAYERS:
            parent = records[parent][3]
        if parent >= 0:
            phase = records[parent][0]
            seconds, count = out[phase]
            out[phase] = (seconds - (end - start), count)
    return out


def build_layers(
    split: Dict[str, Tuple[float, int]], builds: int
) -> Dict[str, float]:
    """Mean seconds per build of each phase of :func:`build_split`."""
    out = {
        metric: split.get(name, (0.0, 0))[0] / max(builds, 1)
        for name, metric in BUILD_LAYERS.items()
    }
    seconds, calls = split.get(TRANSPOSE, (0.0, 0))
    out["kernel.bulkops.transpose_s"] = seconds / max(builds, 1)
    out["kernel.bulkops.transpose_calls"] = calls / max(builds, 1)
    return out


# -- the backend timing wrapper -----------------------------------------------------


class TimedLease:
    """Times ``acquire``/``release`` of a backend lease."""

    def __init__(self, inner: Any, owner: "TimedBackend") -> None:
        self._inner = inner
        self._owner = owner

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def acquire(self) -> bool:
        started = time.monotonic()
        try:
            return bool(self._inner.acquire())
        finally:
            self._owner.lease_s += time.monotonic() - started

    def release(self) -> None:
        started = time.monotonic()
        try:
            self._inner.release()
        finally:
            self._owner.lease_s += time.monotonic() - started


class TimedBackend:
    """Delegates the ``ArtifactBackend`` protocol, timing reads, writes
    and leases and counting their bytes."""

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self.name = inner.name
        self.get_s = self.put_s = self.lease_s = 0.0
        self.get_calls = self.put_calls = 0
        self.get_bytes = self.put_bytes = 0
        self.tracer: Optional[Tracer] = None

    def open(self) -> None:
        self._inner.open()

    def get(self, key: Any) -> Any:
        started = time.monotonic()
        result = self._inner.get(key)
        ended = time.monotonic()
        self.get_s += ended - started
        self.get_calls += 1
        self.get_bytes += len(result.payload or b"")
        self._span("engine.backends.get", started, ended)
        return result

    def put(self, key: Any, payload: bytes) -> Any:
        started = time.monotonic()
        result = self._inner.put(key, payload)
        ended = time.monotonic()
        self.put_s += ended - started
        self.put_calls += 1
        self.put_bytes += len(payload)
        self._span("engine.backends.put", started, ended)
        return result

    def _span(self, name: str, started: float, ended: float) -> None:
        # Backend I/O happens inside ``get_or_build``; recording it as a
        # child there leaves the store's own self time (unpickling and
        # bookkeeping) as that span's self time.
        if self.tracer is None:
            return
        stack = self.tracer._stack()
        span: Span = [name, started, ended, stack[-1] if stack else None, None]
        self.tracer.spans.append(span)

    def delete(self, key: Any) -> None:
        self._inner.delete(key)

    def sweep(self) -> int:
        return int(self._inner.sweep())

    def stats(self) -> Dict[str, object]:
        return dict(self._inner.stats())

    def lease_for(self, key: Any) -> Any:
        lease = self._inner.lease_for(key)
        return TimedLease(lease, self) if lease is not None else None

    def counters(self) -> Dict[str, float]:
        return {
            "get_s": self.get_s,
            "get_calls": self.get_calls,
            "get_bytes": self.get_bytes,
            "put_s": self.put_s,
            "put_calls": self.put_calls,
            "put_bytes": self.put_bytes,
            "lease_s": self.lease_s,
        }
