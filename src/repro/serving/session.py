"""Asyncio-friendly update servicing over a synchronous ``Session``.

The engine's derivations are CPU-bound, cooperative-cancellation
Python: they belong on worker threads, not on the event loop.
:class:`AsyncSession` wraps one :class:`~repro.engine.engine.Session`
and runs every potentially-expensive step -- compiling the state space
and algebra, servicing an update -- on a bounded
:class:`~concurrent.futures.ThreadPoolExecutor`, so the loop stays
responsive enough to keep answering ``/healthz`` and shedding load
while a cold compile is in progress.

Deadlines still fire because they are *cooperative*: the worker thread
installs an :class:`~repro.resilience.guard.ExecutionGuard` scoped to
the request's remaining budget, and the kernel hot loops tick it
exactly as they do in synchronous use (the engine's own guard scope
joins an installed guard rather than replacing it).  Queue wait counts
against the budget: the caller passes the *remaining* milliseconds, and
a request whose budget was consumed waiting is failed typed without
occupying the executor at all.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Iterable, Optional

from repro.engine.engine import Engine, Session, UpdateOutcome
from repro.errors import DeadlineExceededError, ServingError
from repro.relational.instances import DatabaseInstance
from repro.relational.schema import Schema
from repro.resilience.guard import ExecutionGuard, guarded
from repro.settings import SERVER_MAX_INFLIGHT, read
from repro.typealgebra.assignment import TypeAssignment
from repro.views.view import View

__all__ = ["AsyncSession"]


class AsyncSession:
    """One served ``(D, mu)`` session, driven from an event loop."""

    def __init__(
        self,
        engine: Engine,
        schema: Schema,
        assignment: TypeAssignment,
        space_source: Optional[object] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.schema = schema
        self.assignment = assignment
        #: Fingerprintable generator spec handed to ``Engine.space_from``
        #: during warm-up.  ``None`` falls back to enumeration, which is
        #: only feasible for small universes -- the decomposition
        #: schemas' closed-form generators are the serving-scale path.
        self._space_source = space_source
        self._session: Optional[Session] = None
        self._executor = ThreadPoolExecutor(
            max_workers=read(
                SERVER_MAX_INFLIGHT, max_workers, "AsyncSession"
            ),
            thread_name_prefix="repro-serving",
        )

    @property
    def session(self) -> Session:
        """The wrapped synchronous session (tests and embedders)."""
        if self._session is None:
            raise ServingError(
                "AsyncSession has not been warmed up; call warmup()"
                " before servicing requests"
            )
        return self._session

    async def _off_loop(
        self, func: Callable[..., object], /, *args: object
    ) -> object:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, func, *args)

    # -- warmup ----------------------------------------------------------------

    async def warmup(
        self,
        views: Iterable[View],
        candidates: Iterable[View] = (),
    ) -> None:
        """Compile space + algebra + procedures; bind the session.

        Everything expensive happens off-loop.  Warm-up binds each
        view's procedure to the session, so after it the per-request
        path is a bound procedure plus one ``procedure.apply``, with no
        artifact-store lookup.  The state space comes from the spec's
        closed-form generator when one was given
        (``Engine.space_from``) -- enumeration is infeasible at serving
        scale.
        """
        views = tuple(views)
        candidates = tuple(candidates)

        def build() -> None:
            space = (
                self.engine.space_from(self._space_source)
                if self._space_source is not None
                else None
            )
            session = self.engine.session(
                self.schema, self.assignment, space
            )
            for view in views:
                session.register_view(view)
            session.build_component_algebra(candidates)
            for view in views:
                session.procedure_for(view.name)
            self._session = session

        await self._off_loop(build)

    # -- update servicing ------------------------------------------------------

    async def update(
        self,
        view_name: str,
        base_state: DatabaseInstance,
        view_target: DatabaseInstance,
        deadline_ms: Optional[float] = None,
    ) -> UpdateOutcome:
        """Service one update off-loop, under a per-request guard.

        *deadline_ms* is the request's **remaining** budget; a
        non-positive value fails typed immediately -- the budget was
        burned in the queue, so occupying a worker would only make the
        overload worse.
        """
        if deadline_ms is not None and deadline_ms <= 0:
            raise DeadlineExceededError(
                f"request deadline expired before execution began"
                f" (view {view_name!r} waited out its budget in the"
                " admission queue)",
                elapsed_ms=0.0,
                deadline_ms=deadline_ms,
            )
        outcome = await self._off_loop(
            self._guarded_update,
            view_name,
            base_state,
            view_target,
            deadline_ms,
        )
        return outcome  # type: ignore[return-value]

    def _guarded_update(
        self,
        view_name: str,
        base_state: DatabaseInstance,
        view_target: DatabaseInstance,
        deadline_ms: Optional[float],
    ) -> UpdateOutcome:
        """Executor-thread body: install the guard, run the update."""
        if deadline_ms is None:
            return self.session.update(view_name, base_state, view_target)
        with guarded(ExecutionGuard(deadline_ms=deadline_ms)):
            return self.session.update(view_name, base_state, view_target)

    # -- introspection ---------------------------------------------------------

    async def stats(self) -> Dict[str, Dict[str, object]]:
        """The engine's full stats snapshot, taken off-loop.

        The snapshot itself is lock-cheap (the store never holds its
        lock across builds), but it deep-copies every counter dict, so
        a busy ``/stats`` endpoint still stays off the event loop.
        """
        snapshot = await self._off_loop(self.engine.stats)
        return snapshot  # type: ignore[return-value]

    def close(self) -> None:
        """Shut the executor down, finishing queued work first.

        Blocking; for synchronous embedders and tests.  On the event
        loop use :meth:`aclose` instead -- ``shutdown(wait=True)``
        parks the calling thread until every queued build finishes,
        and a parked loop thread can answer nothing, not even
        ``/healthz``.
        """
        self._executor.shutdown(wait=True)

    async def aclose(self) -> None:
        """Shut the executor down without blocking the event loop.

        The wait happens on a default-executor thread (not this
        session's own executor: a pool cannot run the job that waits
        for that same pool to drain), so in-flight builds still finish
        while the loop keeps serving health checks and shed responses.
        """
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self._executor.shutdown(wait=True)
        )
