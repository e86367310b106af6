"""Admission control: bounded queues, tokens, shed-don't-wedge.

The serving tier's overload contract lives here.  An
:class:`AdmissionController` sits in front of the worker pool and
decides, for every request, one of two fates *before* any expensive
work happens:

* **admit** -- a ticket enters one of three bounded priority queues
  (``high`` > ``normal`` > ``low``; workers always drain the highest
  non-empty queue first);
* **shed** -- the target queue is full, or the server is draining:
  a typed :class:`~repro.errors.ServerOverloadedError` /
  :class:`~repro.errors.ServerDrainingError` carries a ``Retry-After``
  hint derived from the observed service-time EWMA, so the refusal is
  cheap for the server and actionable for the client.  A request is
  also shed while the engine's circuit breaker has an open circuit
  still cooling down (queueing it would only delay the same typed
  failure), with the breaker's own retry hint.

Concurrency is bounded by a token bucket of ``max_inflight`` tokens
(``REPRO_SERVER_MAX_INFLIGHT``): the server
runs exactly one worker task per token, so at most ``max_inflight``
updates occupy the executor at once and everything else waits in the
bounded queues -- queue depth, not memory growth, is the only backlog.

The controller is **asyncio-native and single-threaded by design**:
every method must be called on the event loop, which is the only
mutator, so there are no locks to get wrong.  (The executor threads
never touch it; workers report completions back on the loop.)

``server.admit`` and ``server.drain`` are registered fault points: the
chaos suite injects crashes and delays at both and asserts the server
sheds or degrades -- typed errors, bounded queues, a drain that always
terminates -- instead of wedging.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional

from repro.errors import (
    ServerDrainingError,
    ServerOverloadedError,
)
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import fault_check
from repro.serving.protocol import PRIORITIES, UpdateRequest
from repro.settings import SERVER_MAX_INFLIGHT, SERVER_QUEUE_DEPTH, read

__all__ = [
    "AdmissionController",
    "RETRY_AFTER_CEILING_MS",
    "RETRY_AFTER_FLOOR_MS",
    "Ticket",
]

#: Fallback service-time estimate before any completion was observed.
_DEFAULT_SERVICE_MS = 50.0
#: EWMA smoothing factor for observed service times.
_EWMA_ALPHA = 0.2

#: Bounds on the derived Retry-After hint.  The floor stops clients
#: from busy-spinning against a nearly-idle server; the ceiling stops
#: one pathological service-time observation (a cold first build, a
#: GC pause) from telling the whole fleet to go away for minutes.
RETRY_AFTER_FLOOR_MS = 50.0
RETRY_AFTER_CEILING_MS = 30_000.0


@dataclass
class Ticket:
    """One admitted request, queued then executed by a worker."""

    request_id: str
    request: UpdateRequest
    #: Monotonic second the ticket was admitted (queue-wait accounting).
    admitted_at: float = 0.0
    #: Effective deadline budget in ms (request or server default).
    deadline_ms: Optional[float] = None
    #: Resolved by the worker with the outcome (or a typed error).
    future: "asyncio.Future[object]" = field(
        default_factory=lambda: asyncio.get_running_loop().create_future()
    )


class AdmissionController:
    """Bounded per-priority admission in front of the worker pool."""

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        queue_depth: Optional[int] = None,
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        #: The token-bucket size; the server runs one worker per token.
        self.max_inflight = read(
            SERVER_MAX_INFLIGHT, max_inflight, "AdmissionController"
        )
        #: The bound of each priority queue.
        self.queue_depth = read(
            SERVER_QUEUE_DEPTH, queue_depth, "AdmissionController"
        )
        self._breaker = breaker
        self._clock = clock
        self._queues: Dict[str, Deque[Ticket]] = {
            priority: deque() for priority in PRIORITIES
        }
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._inflight = 0
        self._service_ewma_ms = _DEFAULT_SERVICE_MS
        self._ewma_seeded = False
        self._ewma_observed = False
        # -- counters (all mutated on the event loop only) --
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.shed_overload = 0
        self.shed_draining = 0
        self.shed_breaker = 0
        self.queue_high_water = 0

    # -- admission -------------------------------------------------------------

    def admit(self, ticket: Ticket) -> None:
        """Admit *ticket* or shed it with a typed, retry-aware error.

        Order of the gates matters: drain first (a draining server
        sheds everything new, however empty its queues), then the
        injected-fault hook, then the breaker, then the queue bound.
        """
        if self._draining:
            self.shed_draining += 1
            raise ServerDrainingError(
                "server is draining; not admitting new updates",
                queue=ticket.request.priority,
                retry_after_ms=self._retry_after_ms(),
            )
        fault_check("server.admit")
        self._breaker_gate(ticket)
        queue = self._queues[ticket.request.priority]
        if len(queue) >= self.queue_depth:
            self.shed_overload += 1
            raise ServerOverloadedError(
                f"admission queue {ticket.request.priority!r} is full"
                f" ({len(queue)}/{self.queue_depth}); shedding load",
                queue=ticket.request.priority,
                depth=len(queue),
                limit=self.queue_depth,
                retry_after_ms=self._retry_after_ms(),
            )
        ticket.admitted_at = self._clock()
        queue.append(ticket)
        self.admitted += 1
        self.queue_high_water = max(self.queue_high_water, self.queued)
        self._idle.clear()
        self._wakeup.set()

    def _breaker_gate(self, ticket: Ticket) -> None:
        """Shed while a circuit is open and cooling down.

        An open circuit means the artifacts behind this session keep
        failing deterministically: queueing more requests behind them
        only delays the same typed verdict.
        """
        breaker = self._breaker
        if breaker is None:
            return
        retry_ms = breaker.retry_hint_ms()
        if retry_ms is None:
            # No circuit is open-and-cooling: closed circuits admit
            # normally, and an elapsed cooldown must admit so the
            # half-open probe can actually run and recover.
            return
        self.shed_breaker += 1
        raise ServerOverloadedError(
            "derivation circuit(s) open; shedding instead of queueing"
            " doomed work",
            queue="breaker",
            retry_after_ms=retry_ms,
        )

    def _retry_after_ms(self) -> float:
        """A backoff hint: time to clear the current backlog, observed.

        ``(queued + inflight) / tokens`` service periods at the EWMA
        service time, clamped to
        [:data:`RETRY_AFTER_FLOOR_MS`, :data:`RETRY_AFTER_CEILING_MS`]
        so clients neither busy-spin nor vanish for minutes on one
        pathological observation.
        """
        backlog = self.queued + self._inflight + 1
        periods = backlog / max(1, self.max_inflight)
        return min(
            RETRY_AFTER_CEILING_MS,
            max(RETRY_AFTER_FLOOR_MS, periods * self._service_ewma_ms),
        )

    def seed_service_ms(self, service_ms: float) -> None:
        """Prime the service-time EWMA before any request completed.

        A cold server sheds with a Retry-After derived from a built-in
        constant; the warm-up pass knows better (it just *ran* an
        update end to end), so the server seeds the estimate with the
        measured warm-up time.  A seed is a placeholder, not an
        observation: the first real completion replaces it outright
        instead of folding into it, and later seeds are ignored once
        real traffic has been observed.
        """
        if self._ewma_observed or service_ms <= 0:
            return
        self._service_ewma_ms = min(
            RETRY_AFTER_CEILING_MS, max(RETRY_AFTER_FLOOR_MS, service_ms)
        )
        self._ewma_seeded = True

    # -- the worker side -------------------------------------------------------

    async def next_ticket(self) -> Optional[Ticket]:
        """The next ticket by priority; ``None`` when drained.

        Workers block here while the queues are empty.  During a drain
        the queues are still handed out (admitted work is finished, not
        dropped); ``None`` is returned only once draining *and* empty.
        """
        while True:
            for priority in PRIORITIES:
                queue = self._queues[priority]
                if queue:
                    ticket = queue.popleft()
                    self._inflight += 1
                    return ticket
            if self._draining:
                return None
            self._wakeup.clear()
            await self._wakeup.wait()

    def task_done(self, succeeded: bool, service_seconds: float) -> None:
        """Return a token; fold the service time into the EWMA."""
        self._inflight -= 1
        if succeeded:
            self.completed += 1
        else:
            self.failed += 1
        if service_seconds > 0:
            if not self._ewma_observed:
                # First real observation: replace the default (or the
                # warm-up seed) instead of folding into it -- a
                # placeholder deserves no weight in the average.
                self._service_ewma_ms = service_seconds * 1e3
                self._ewma_observed = True
            else:
                self._service_ewma_ms += _EWMA_ALPHA * (
                    service_seconds * 1e3 - self._service_ewma_ms
                )
        if self._inflight == 0 and self.queued == 0:
            self._idle.set()
            # Wake parked workers so they can observe a drain.
            self._wakeup.set()

    # -- drain -----------------------------------------------------------------

    def start_drain(self) -> None:
        """Stop admitting; queued and in-flight work keeps running."""
        self._draining = True
        self._wakeup.set()

    async def drained(self, timeout_s: Optional[float]) -> bool:
        """Wait until every admitted ticket finished (or *timeout_s*).

        Returns ``True`` when the backlog reached zero -- the graceful
        case: nothing admitted was dropped.  ``False`` means the drain
        deadline expired with work still running; the caller reports
        the leftovers instead of pretending they finished.
        """
        if not self._draining:
            self.start_drain()
        if self._inflight == 0 and self.queued == 0:
            return True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout_s)
        except asyncio.TimeoutError:
            return False
        return True

    # -- introspection ---------------------------------------------------------

    @property
    def queued(self) -> int:
        """Total tickets currently queued across all priorities."""
        return sum(len(queue) for queue in self._queues.values())

    @property
    def inflight(self) -> int:
        """Tickets currently occupying a concurrency token."""
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready counters for ``/stats`` and the drain report."""
        return {
            "max_inflight": self.max_inflight,
            "queue_depth": self.queue_depth,
            "queued": {
                priority: len(queue)
                for priority, queue in self._queues.items()
            },
            "inflight": self._inflight,
            "draining": self._draining,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed_overload": self.shed_overload,
            "shed_draining": self.shed_draining,
            "shed_breaker": self.shed_breaker,
            "queue_high_water": self.queue_high_water,
            "service_ewma_ms": round(self._service_ewma_ms, 3),
            "service_ewma_seeded": self._ewma_seeded,
            "service_ewma_observed": self._ewma_observed,
        }
