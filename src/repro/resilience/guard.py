"""Deadlines and cooperative cancellation for long derivations.

State-space enumeration is a powerset construction and most analyses
are polynomial in ``|LDB|``, which is itself exponential in the schema:
a pathological input can legitimately run forever.  The resilience
contract is that it must not do so *silently*.  An
:class:`ExecutionGuard` carries a wall-clock deadline and/or a step
budget; the enumeration and kernel hot loops call :meth:`tick` once per
candidate/state, and the guard raises a typed
:class:`~repro.errors.DeadlineExceededError` the moment either limit is
crossed -- cooperative cancellation, no threads, no signals.

Guards are installed per :class:`~threading.Thread` via the
:func:`guarded` context manager; hot loops fetch the innermost one with
:func:`current_guard` (``None`` when no limit is active, so the
unguarded fast path costs one thread-local read per loop).  The
``REPRO_DEADLINE_MS`` environment variable supplies a default deadline
for engine-driven derivations; ``Engine(deadline_ms=...)`` and the
harness ``--deadline`` flag override it per engine / per run.  All
three are read through :func:`repro.settings.read`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.errors import DeadlineExceededError
from repro.settings import DEADLINE_MS, MAX_STEPS, read

__all__ = [
    "DEADLINE_ENV_VAR",
    "ExecutionGuard",
    "current_guard",
    "deadline_from_env",
    "guarded",
]

#: Environment variable supplying a default wall-clock deadline (ms).
DEADLINE_ENV_VAR = DEADLINE_MS.env

#: Wall-clock checks happen every this many ticks; step-budget checks
#: happen on every tick (they are one integer comparison).
_CLOCK_CHECK_EVERY = 1024


class ExecutionGuard:
    """A wall-clock deadline plus step budget, checked cooperatively.

    ``deadline_ms`` bounds elapsed wall-clock time from construction;
    ``max_steps`` bounds the number of cooperative :meth:`tick` steps.
    Either may be ``None`` (unlimited); a limit below 0 or NaN is a
    :class:`~repro.errors.ConfigError`.  The clock is only consulted
    every ``_CLOCK_CHECK_EVERY`` ticks, so a tick on the unexpired path
    is a couple of integer operations.
    """

    __slots__ = (
        "deadline_ms",
        "max_steps",
        "steps",
        "_clock",
        "_started",
        "_deadline_at",
        "_next_clock_check",
    )

    def __init__(
        self,
        deadline_ms: Optional[float] = None,
        max_steps: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # Every served request with a deadline builds a guard, so the
        # limits are compared here and the reader only words a refusal.
        if deadline_ms is not None and not deadline_ms >= 0:
            read(DEADLINE_MS, deadline_ms, "ExecutionGuard")
        if max_steps is not None and not max_steps >= 0:
            read(MAX_STEPS, max_steps, "ExecutionGuard")
        self.deadline_ms = deadline_ms
        self.max_steps = max_steps
        self.steps = 0
        self._clock = clock
        self._started = clock()
        self._deadline_at = (
            None if deadline_ms is None else self._started + deadline_ms / 1e3
        )
        self._next_clock_check = _CLOCK_CHECK_EVERY

    # -- bookkeeping ----------------------------------------------------------

    def elapsed_ms(self) -> float:
        """Wall-clock milliseconds since the guard was created."""
        return (self._clock() - self._started) * 1e3

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds left before the deadline (``None`` if unset)."""
        if self._deadline_at is None:
            return None
        return (self._deadline_at - self._clock()) * 1e3

    def expired(self) -> bool:
        """True iff either limit has been crossed (without raising)."""
        if self.max_steps is not None and self.steps > self.max_steps:
            return True
        return (
            self._deadline_at is not None
            and self._clock() > self._deadline_at
        )

    # -- the hot-path check ---------------------------------------------------

    def tick(self, steps: int = 1) -> None:
        """Count *steps* units of work; raise if a limit is crossed."""
        self.steps += steps
        if self.max_steps is not None and self.steps > self.max_steps:
            self._trip()
        if self._deadline_at is not None and (
            self.steps >= self._next_clock_check
        ):
            self._next_clock_check = self.steps + _CLOCK_CHECK_EVERY
            if self._clock() > self._deadline_at:
                self._trip()

    def check(self) -> None:
        """Check both limits immediately (no step counted, no batching).

        Used at derivation boundaries, where an expired guard should
        trip before more work starts even if the last loop never
        reached a clock-check tick.
        """
        if self.expired():
            self._trip()

    def _trip(self) -> None:
        parts = []
        if self._deadline_at is not None:
            parts.append(f"deadline {self.deadline_ms:g}ms")
        if self.max_steps is not None:
            parts.append(f"step budget {self.max_steps}")
        raise DeadlineExceededError(
            f"derivation exceeded its {' / '.join(parts) or 'limits'} "
            f"(elapsed {self.elapsed_ms():.1f}ms, {self.steps} steps)",
            elapsed_ms=self.elapsed_ms(),
            deadline_ms=self.deadline_ms,
            steps=self.steps,
            max_steps=self.max_steps,
        )


# -- the current-guard protocol -----------------------------------------------

_local = threading.local()


def current_guard() -> Optional[ExecutionGuard]:
    """The innermost active guard on this thread, or ``None``."""
    stack = getattr(_local, "stack", None)
    if not stack:
        return None
    return stack[-1]


@contextmanager
def guarded(guard: Optional[ExecutionGuard]) -> Iterator[
    Optional[ExecutionGuard]
]:
    """Install *guard* as the current guard within the block.

    ``guarded(None)`` is a no-op scope, so callers can write
    ``with guarded(maybe_guard):`` without branching.
    """
    if guard is None:
        yield None
        return
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    stack.append(guard)
    try:
        yield guard
    finally:
        stack.pop()


def deadline_from_env() -> Optional[float]:
    """The ``REPRO_DEADLINE_MS`` value, or ``None`` when it is unset;
    one that is not a number at least 0 is a ``ConfigError``."""
    return read(DEADLINE_MS)
