"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the important cases:

* schema/definition-time problems (:class:`SchemaError`,
  :class:`ArityError`, :class:`UnknownRelationError`, ...);
* state-time problems (:class:`ConstraintViolation`,
  :class:`IllegalInstanceError`);
* update-time outcomes (:class:`UpdateRejected` -- *not* a bug, but the
  paper's "update not allowed" verdict of Definition 0.1.2(c));
* analysis failures (:class:`NotStrongError`, :class:`NotAComplementError`,
  :class:`NotSurjectiveError`) raised when a view does not have the
  structure an algorithm requires.
"""

from __future__ import annotations

import argparse


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A schema, relation schema, or constraint is ill-formed."""


class ArityError(SchemaError):
    """A tuple or column reference does not match a relation's arity."""


class UnknownRelationError(SchemaError):
    """A relation name was used that the schema does not declare."""


class UnknownAttributeError(SchemaError):
    """An attribute name was used that the relation does not declare."""


class TypeAlgebraError(ReproError):
    """A type expression or type assignment is ill-formed or inconsistent."""


class EvaluationError(ReproError):
    """A query or formula could not be evaluated over an instance."""


class IllegalInstanceError(ReproError):
    """An instance violates its schema's integrity constraints."""

    def __init__(self, message: str, violations: tuple = ()) -> None:
        super().__init__(message)
        #: The constraints found violated, when the caller collected them.
        self.violations = violations


class ConstraintViolation(IllegalInstanceError):
    """A specific constraint is violated by an instance."""


class EnumerationError(ReproError):
    """State-space enumeration failed or exceeded its configured budget."""


class StateSpaceTooLargeError(EnumerationError):
    """Enumerating ``LDB(D, mu)`` would exceed the ``max_states`` budget."""


class NotSurjectiveError(ReproError):
    """A view mapping is not surjective onto its declared view schema.

    The paper (Section 1.1) *assumes* surjectivity of every view mapping;
    algorithms that rely on it raise this error instead of silently
    producing wrong answers.
    """


class NotStrongError(ReproError):
    """A view is not a strong view, but the operation requires one.

    Carries the :class:`~repro.core.strong.StrongViewAnalysis` that
    documents which of the defining conditions failed, when available.
    """

    def __init__(self, message: str, analysis=None) -> None:
        super().__init__(message)
        self.analysis = analysis


class NotAComplementError(ReproError):
    """Two views were expected to be (join/meet) complementary but are not."""


class NotComparableError(ReproError):
    """A view was expected to define another (``<=`` in View(D)) but does not."""


class UpdateRejected(ReproError):
    """The requested view update is not allowed by the update strategy.

    This is the formal "undefined" outcome of an update strategy
    (Definition 0.1.2(c)): raising it is the normal way a strategy refuses
    an update, not a sign of library malfunction.
    """

    def __init__(self, message: str, reason: str = "") -> None:
        super().__init__(message)
        #: Machine-readable reason tag (e.g. ``"no-solution"``,
        #: ``"image-mismatch"``, ``"not-constant"``).
        self.reason = reason


class NoSolutionError(UpdateRejected):
    """No base state at all maps to the requested view state."""

    def __init__(self, message: str) -> None:
        super().__init__(message, reason="no-solution")


class AmbiguousSolutionError(ReproError):
    """More than one solution satisfied a condition that must pin down one.

    With a genuine join complement this cannot happen (Theorem 1.3.2); the
    error therefore signals that the alleged complement is not one.
    """


class PosetError(ReproError):
    """A poset operation failed (no bottom, no least upper bound, ...)."""


class NotABooleanAlgebraError(ReproError):
    """A candidate element set fails the Boolean algebra axioms."""


class ConfigError(ReproError, ValueError, argparse.ArgumentTypeError):
    """A ``REPRO_*`` variable, CLI flag or constructor limit does not
    parse, is NaN or lies outside its range (see :mod:`repro.settings`).
    Also an ``ArgumentTypeError``: a flag whose ``type=`` is the reader
    refuses with this message as argparse's usage error."""


class ResilienceError(ReproError):
    """Base class for the fail-closed resilience layer's typed failures.

    The library's contract (Definition 0.1.2(c) generalised to the whole
    system) is that it either answers correctly or *visibly* refuses: a
    runaway derivation, a crashed kernel, or a rotten cache entry must
    surface as a subclass of this error, never as a bare ``KeyError`` or
    a silent wrong answer.
    """


class BackendError(ResilienceError):
    """Base class for artifact-storage-backend failures."""


class BackendConfigError(BackendError):
    """The backend selection knobs are malformed (unknown name, missing
    URL).  Raised eagerly: a typo'd ``REPRO_STORE_BACKEND`` must not
    silently mean "no persistence"."""


class BackendUnavailableError(BackendError):
    """A configured backend failed to open (unreachable file, corrupt
    database, injected fault).  The store absorbs it by degrading to
    memory-only operation."""


class DeadlineExceededError(ResilienceError):
    """A derivation ran past its wall-clock deadline or step budget.

    Raised cooperatively from inside the enumeration and kernel hot
    loops by :class:`repro.resilience.guard.ExecutionGuard`, so a
    pathological schema fails closed instead of hanging the session.
    """

    def __init__(
        self,
        message: str,
        elapsed_ms: float = 0.0,
        deadline_ms=None,
        steps: int = 0,
        max_steps=None,
    ) -> None:
        super().__init__(message)
        #: Wall-clock milliseconds spent when the guard tripped.
        self.elapsed_ms = elapsed_ms
        #: The configured deadline in milliseconds (``None`` if unset).
        self.deadline_ms = deadline_ms
        #: Cooperative steps counted when the guard tripped.
        self.steps = steps
        #: The configured step budget (``None`` if unset).
        self.max_steps = max_steps


class KernelFailureError(ResilienceError):
    """A kernel derivation crashed with an unexpected exception.

    The engine retries a bulk-kernel crash once on the naive kernel and
    raises this only when that retry also failed -- or when a build
    under the naive kernel, with nothing below it, crashed directly.
    Every traceback is carried so the underlying defect is not lost.
    """

    def __init__(
        self,
        message: str,
        kind: str = "",
        naive_traceback: str = "",
        bulk_traceback: str = "",
    ) -> None:
        super().__init__(message)
        #: The artifact kind being derived ("space", "analysis", ...).
        self.kind = kind
        #: Formatted traceback of the bulk-kernel failure ("" if the
        #: bulk kernel was never involved).
        self.bulk_traceback = bulk_traceback
        #: Formatted traceback of the naive-kernel failure.
        self.naive_traceback = naive_traceback


class CircuitOpenError(ResilienceError):
    """A derivation's circuit breaker is open: failing fast, not retrying.

    After ``threshold`` consecutive :class:`KernelFailureError`\\ s for
    one ``(kind, fingerprint)`` derivation, the engine's
    :class:`~repro.resilience.breaker.CircuitBreaker` stops re-running
    the build and raises this instead -- a deterministic
    crash re-crashing on every request would otherwise burn a full
    bulk + naive build per caller.  The breaker re-probes after a
    cooldown (half-open), and :meth:`Engine.reset_breaker` clears it
    manually.
    """

    def __init__(
        self,
        message: str,
        kind: str = "",
        fingerprint: str = "",
        failures: int = 0,
        retry_after_ms: float = 0.0,
    ) -> None:
        super().__init__(message)
        #: The artifact kind being derived ("space", "analysis", ...).
        self.kind = kind
        #: Fingerprint of the derivation's inputs.
        self.fingerprint = fingerprint
        #: Consecutive kernel failures recorded when the circuit opened.
        self.failures = failures
        #: Milliseconds until the breaker will allow a half-open probe.
        self.retry_after_ms = retry_after_ms


class ServingError(ResilienceError):
    """Base class for the async update server's typed failures.

    The serving tier's contract extends the library's fail-closed rule
    to overload: when offered load exceeds capacity the server *sheds*
    requests with a typed, retry-aware refusal -- it never queues
    unboundedly, never wedges, and never crashes the process.
    """


class ServerOverloadedError(ServingError):
    """Admission refused: a bounded queue is full (or the breaker says
    the work is doomed).  Maps to HTTP 503 with a ``Retry-After`` hint
    derived from observed service times, so well-behaved clients back
    off instead of hammering a saturated server.
    """

    def __init__(
        self,
        message: str,
        queue: str = "",
        depth: int = 0,
        limit: int = 0,
        retry_after_ms: float = 0.0,
    ) -> None:
        super().__init__(message)
        #: The admission queue that refused (priority name, or
        #: ``"breaker"`` for circuit-open fast-fail).
        self.queue = queue
        #: Entries queued when admission was refused.
        self.depth = depth
        #: The configured bound of that queue.
        self.limit = limit
        #: Suggested client backoff before retrying.
        self.retry_after_ms = retry_after_ms


class ServerDrainingError(ServerOverloadedError):
    """Admission refused because the server is draining (SIGTERM):
    in-flight requests finish, new ones are shed with a retry hint."""


class RequestProtocolError(ServingError):
    """A wire request could not be parsed (malformed JSON, missing
    fields, bad instance encoding).  Maps to HTTP 400."""


class WarmStartError(ServingError):
    """A sibling warm-start build died before publishing its artifacts.

    Raised by :func:`repro.serving.warmstart.sibling_warm_start` when
    the builder process exits nonzero, times out, or leaves no artifact
    store behind -- a typed verdict instead of a traceback, so service
    wrappers can fall back to a cold start deliberately.
    """


class UnexpectedFailureError(ResilienceError):
    """An update-servicing step crashed outside any typed failure path.

    The last line of defence in :meth:`Session.update`: whatever slipped
    through the kernel fallback and the store's hardening is wrapped
    here (with the original exception chained) so callers still see a
    :class:`ReproError` subclass.
    """


class LintError(ReproError):
    """A ``repro.lint`` run could not proceed (bad paths, bad baseline,
    unknown rule id).  Rule *findings* are data, not exceptions; this is
    for failures of the lint machinery itself."""
