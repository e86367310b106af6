"""A circuit breaker for deterministically failing derivations.

The engine's fallback (a bulk-kernel crash is retried once on the
naive kernel, and a crash there is a typed
:class:`~repro.errors.KernelFailureError`) is the right response to a
*transient* kernel crash; against a *deterministic* one it re-runs two
doomed builds on every request.  A :class:`CircuitBreaker` remembers,
per ``(kind, fingerprint)``, how many consecutive kernel failures a
derivation has produced, and once the threshold is crossed further
requests raise a typed :class:`~repro.errors.CircuitOpenError`
immediately -- callers get the fail-closed verdict in microseconds
instead of after a full bulk + naive build.  A build the naive retry
rescues is a success: it was served, and the store caches it under
its original key, so the crash is not paid again.

The breaker follows the classical state machine::

    CLOSED --- threshold consecutive failures ---> OPEN
    OPEN   --- cooldown elapsed -----------------> HALF-OPEN
    HALF-OPEN: exactly one probe runs the full build;
               success -> CLOSED, failure -> OPEN (fresh cooldown)

The same state machine guards the remote artifact backend's transport
(:class:`~repro.engine.backends.remote.RemoteBackend`): one circuit
keyed ``("transport", url)`` counts HTTP operations that exhausted
their retries, and :meth:`CircuitBreaker.trip` opens it at once when
the backend's opening health probe fails.  Every opening -- threshold
crossed, failed half-open probe, or explicit trip -- counts toward
:attr:`CircuitBreaker.trips`, which survives recovery.

Everything is guarded by one lock and the clock is injectable, so the
state machine is thread-safe and unit-testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import CircuitOpenError
from repro.settings import BREAKER_COOLDOWN_MS, BREAKER_THRESHOLD, read

__all__ = [
    "ALLOW",
    "CLOSED",
    "CircuitBreaker",
    "HALF_OPEN",
    "OPEN",
    "PROBE",
]

#: Circuit states (as reported by :meth:`CircuitBreaker.snapshot`).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Admission verdicts returned by :meth:`CircuitBreaker.admit`.
ALLOW = "allow"  # closed circuit: run the normal build
PROBE = "probe"  # half-open: this caller is the single probe


@dataclass
class _DerivationState:
    """Mutable breaker bookkeeping for one ``(kind, fingerprint)``."""

    failures: int = 0  # consecutive; reset on success
    state: str = CLOSED
    opened_at: float = 0.0
    trips: int = 0
    probing: bool = False


class CircuitBreaker:
    """Thread-safe per-derivation circuit breaker (see module docs)."""

    def __init__(
        self,
        threshold: int = BREAKER_THRESHOLD.default,
        cooldown_ms: float = BREAKER_COOLDOWN_MS.default,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.threshold = read(BREAKER_THRESHOLD, threshold, "CircuitBreaker")
        self.cooldown_ms = read(
            BREAKER_COOLDOWN_MS, cooldown_ms, "CircuitBreaker"
        )
        self._clock = clock
        self._lock = threading.RLock()
        self._states: Dict[Tuple[str, str], _DerivationState] = {}
        self._trips = 0

    @classmethod
    def from_env(cls) -> "CircuitBreaker":
        """A breaker from the ``REPRO_BREAKER_*`` environment variables,
        falling back to the defaults; a value out of range is a
        :class:`~repro.errors.ConfigError`."""
        return cls(read(BREAKER_THRESHOLD), read(BREAKER_COOLDOWN_MS))

    # -- admission ------------------------------------------------------------

    def admit(self, kind: str, fingerprint: str) -> str:
        """Gate one derivation attempt.

        Returns :data:`ALLOW` (closed circuit -- run the build) or
        :data:`PROBE` (half-open -- this caller is the single probe, and
        must report back via ``record_success``/``record_failure``).
        Raises :class:`CircuitOpenError` when open, or half-open with
        the probe already in flight.
        """
        with self._lock:
            state = self._states.get((kind, fingerprint))
            if state is None or state.state == CLOSED:
                return ALLOW
            now = self._clock()
            if (
                state.state == OPEN
                and (now - state.opened_at) * 1e3 >= self.cooldown_ms
            ):
                state.state = HALF_OPEN
                state.probing = False
            if state.state == HALF_OPEN and not state.probing:
                state.probing = True
                return PROBE
            # Open, or half-open with the probe already in flight.
            remaining = max(
                0.0, self.cooldown_ms - (now - state.opened_at) * 1e3
            )
            raise CircuitOpenError(
                f"circuit open for derivation {kind!r} "
                f"(fingerprint {fingerprint[:12]}...): "
                f"{state.failures} consecutive kernel failures; "
                f"half-open probe in {remaining:.0f}ms, or call "
                "Engine.reset_breaker()",
                kind=kind,
                fingerprint=fingerprint,
                failures=state.failures,
                retry_after_ms=remaining,
            )

    # -- outcome reporting ----------------------------------------------------

    def record_success(self, kind: str, fingerprint: str) -> None:
        """A success -- for a derivation, a served build, even one the
        naive retry rescued: close the circuit and forget it."""
        with self._lock:
            self._states.pop((kind, fingerprint), None)

    def record_failure(self, kind: str, fingerprint: str) -> None:
        """A :class:`KernelFailureError`: count it, maybe open."""
        with self._lock:
            state = self._states.setdefault(
                (kind, fingerprint), _DerivationState()
            )
            state.failures += 1
            if state.state == HALF_OPEN:
                # The probe failed: back to open, fresh cooldown.
                self._open(state)
                state.probing = False
            elif state.state == CLOSED:
                if state.failures >= self.threshold:
                    self._open(state)
            else:
                # Already open (a call admitted before it opened has
                # failed): restart the cooldown so probes back off
                # while it keeps failing.
                state.opened_at = self._clock()

    def trip(self, kind: str, fingerprint: str) -> None:
        """Open one circuit at once, without waiting for failures.

        For callers that learn out of band that the guarded resource
        is down (a failed health probe).  An already open or
        half-open circuit is left as it is.
        """
        with self._lock:
            state = self._states.setdefault(
                (kind, fingerprint), _DerivationState()
            )
            if state.state == CLOSED:
                self._open(state)

    # reprolint: holds-lock
    def _open(self, state: _DerivationState) -> None:
        state.state = OPEN
        state.opened_at = self._clock()
        state.trips += 1
        self._trips += 1

    @property
    def trips(self) -> int:
        """How many times any circuit opened, recoveries included."""
        with self._lock:
            return self._trips

    def state(self, kind: str, fingerprint: str) -> str:
        """One circuit's state: :data:`CLOSED`, :data:`OPEN` or
        :data:`HALF_OPEN` (an open circuit past its cooldown)."""
        with self._lock:
            state = self._states.get((kind, fingerprint))
            if state is None:
                return CLOSED
            return self._effective(state, self._clock())

    def _effective(self, state: _DerivationState, now: float) -> str:
        if (
            state.state == OPEN
            and (now - state.opened_at) * 1e3 >= self.cooldown_ms
        ):
            return HALF_OPEN
        return state.state

    def retry_hint_ms(self) -> Optional[float]:
        """Milliseconds until the soonest open circuit allows a probe.

        ``None`` when nothing is open-and-cooling: every tracked
        derivation is closed, already half-open, or past its cooldown
        (in which case the next attempt *is* the recovery probe and
        should be admitted, not shed).  The serving tier's admission
        controller uses this to decide between shedding a request and
        letting it through to probe.
        """
        with self._lock:
            now = self._clock()
            pending = [
                self.cooldown_ms - (now - state.opened_at) * 1e3
                for state in self._states.values()
                if state.state == OPEN
            ]
            cooling = [ms for ms in pending if ms > 0]
            return min(cooling) if cooling else None

    # -- management -----------------------------------------------------------

    def reset(
        self, kind: Optional[str] = None, fingerprint: Optional[str] = None
    ) -> int:
        """Forget tracked derivations; return how many were cleared.

        ``reset()`` clears everything; ``reset(kind)`` clears one kind;
        ``reset(kind, fingerprint)`` clears one derivation.
        """
        with self._lock:
            matches = [
                key
                for key in self._states
                if (kind is None or key[0] == kind)
                and (fingerprint is None or key[1] == fingerprint)
            ]
            for key in matches:
                del self._states[key]
            return len(matches)

    def snapshot(self) -> Dict[str, object]:
        """A deep-copied view of the breaker for ``Engine.stats()``."""
        with self._lock:
            now = self._clock()
            entries = {}
            for (kind, fingerprint), state in sorted(self._states.items()):
                entries[f"{kind}:{fingerprint[:12]}"] = {
                    "kind": kind,
                    "fingerprint": fingerprint,
                    "state": self._effective(state, now),
                    "failures": state.failures,
                    "trips": state.trips,
                }
            return {
                "threshold": self.threshold,
                "cooldown_ms": self.cooldown_ms,
                "open": sum(
                    1
                    for entry in entries.values()
                    if entry["state"] != CLOSED
                ),
                "entries": entries,
            }
