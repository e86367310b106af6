"""The engine facade: compiled artifacts and update-servicing sessions.

:class:`Engine` is the single entry point through which the rest of the
library derives expensive structure from declarative inputs:

* :meth:`Engine.space` / :meth:`Engine.space_from` -- the state space
  ``LDB(D, mu)`` (enumerated or generator-built);
* :meth:`Engine.poset` -- its ⊥-poset;
* :meth:`Engine.analysis` -- a view's strong analysis (§2.3);
* :meth:`Engine.algebra` -- the component algebra of Theorem 2.3.4;
* :meth:`Engine.procedure` -- Update Procedure 3.2.3 instances.

Each derivation but the poset is memoized in an
:class:`~repro.engine.store.ArtifactStore` keyed by input fingerprints
and the active kernel mode, so equal inputs -- even independently
constructed ones -- share one artifact.  The poset, like every
per-view table, is memoized on the space itself, and equal spaces are
one object once the store has anchored them.

:meth:`Engine.session` returns a :class:`Session`: the stateful handle
application code drives (register views, build the algebra, service
updates).  :meth:`Session.update` returns a structured
:class:`UpdateOutcome` instead of steering control flow by exception;
callers that want the legacy raise-on-reject behaviour use
:meth:`UpdateOutcome.require`.

Every derivation runs through the resilience layer:

* a wall-clock deadline / step budget (``Engine(deadline_ms=...)``,
  ``Engine(max_steps=...)``, or the ``REPRO_DEADLINE_MS`` environment
  variable) installs an :class:`~repro.resilience.guard.ExecutionGuard`
  that the hot loops check cooperatively, raising a typed
  :class:`~repro.errors.DeadlineExceededError` instead of hanging;
* an *unexpected* (non-:class:`~repro.errors.ReproError`) crash inside
  a bulk-kernel derivation is retried once on the naive kernel and
  counted in the store's per-kind ``degradations`` stat; a crash the
  naive kernel cannot rescue is a typed
  :class:`~repro.errors.KernelFailureError` carrying every traceback;
* a per-derivation :class:`~repro.resilience.breaker.CircuitBreaker`
  counts those kernel failures: a derivation that keeps producing them
  fails fast with a typed :class:`~repro.errors.CircuitOpenError`,
  until a half-open probe succeeds or :meth:`Engine.reset_breaker` is
  called;
* :meth:`Session.update` wraps whatever still escapes in
  :class:`~repro.errors.UnexpectedFailureError`, so callers always see
  either a structured outcome or a :class:`~repro.errors.ReproError`.

:meth:`Engine.stats` bundles both vantage points into one snapshot:
``{"artifacts": <namespaced store counters>, "breaker": <circuit
states>}``, each a deep copy safe to mutate or serialize.

A module-level *current engine* (:func:`current_engine`) lets layers
that predate the engine -- scenario constructors, decomposition
generators -- route their state-space construction through whatever
engine the caller activated, without threading a parameter through
every signature.
"""

from __future__ import annotations

import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.components import ComponentAlgebra
from repro.core.procedure import UpdateProcedure, strong_join_complements
from repro.core.strong import StrongViewAnalysis, analyze_view
from repro.engine.backends import ArtifactBackend
from repro.engine.fingerprint import is_content_addressed, stable_fingerprint
from repro.engine.store import ArtifactKey, ArtifactStore
from repro.errors import (
    BackendConfigError,
    DeadlineExceededError,
    KernelFailureError,
    ReproError,
    UnexpectedFailureError,
    UpdateRejected,
)
from repro.kernel.config import BULK, NAIVE, kernel_mode, use_kernel
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.guard import (
    ExecutionGuard,
    current_guard,
    guarded,
)
from repro.algebra.poset import FinitePoset
from repro.settings import DEADLINE_MS, MAX_STEPS, read
from repro.relational.enumeration import StateSpace
from repro.relational.instances import DatabaseInstance
from repro.relational.schema import Schema
from repro.typealgebra.assignment import TypeAssignment
from repro.views.view import View

__all__ = [
    "Engine",
    "Session",
    "UpdateOutcome",
    "current_engine",
    "default_engine",
    "set_default_engine",
]

@dataclass(frozen=True)
class UpdateOutcome:
    """Structured result of one view-update request.

    Replaces bare-exception control flow: a rejection is a value
    carrying the formal reason ("undefined" outcome of Procedure 3.2.3)
    rather than only a raised error, so harness code can tabulate
    outcomes and callers can still opt back into raising via
    :meth:`require`.
    """

    view_name: str
    accepted: bool
    base_before: DatabaseInstance
    view_target: DatabaseInstance
    #: The reflected base state (``None`` when rejected).
    base_after: Optional[DatabaseInstance] = None
    #: Name of the constant strong join complement used.
    complement: Optional[str] = None
    #: Name of the component the target was filtered through.
    filter_component: Optional[str] = None
    #: Machine-readable rejection reason ("" when accepted).
    reason: str = ""
    #: Human-readable account of the rejection ("" when accepted).
    message: str = ""
    #: Admissibility evidence: why the reflection is canonical.
    evidence: Tuple[str, ...] = ()
    #: Wall-clock seconds spent servicing the request.
    elapsed: float = 0.0

    def require(self) -> DatabaseInstance:
        """The new base state; raises :class:`UpdateRejected` if rejected."""
        if not self.accepted or self.base_after is None:
            raise UpdateRejected(
                self.message or f"update of view {self.view_name!r} rejected",
                reason=self.reason,
            )
        return self.base_after


class Engine:
    """Artifact-compiling facade over the paper's machinery.

    Artifacts are memoized in *store* when one is given, else in a
    default-sized store on *backend* (or on the ``REPRO_STORE_*``
    selection when that is ``None`` too).  A store's backend is fixed
    when the store is built, so passing both *store* and *backend*
    raises :class:`~repro.errors.BackendConfigError` instead of
    silently dropping the backend, and a *deadline_ms* or *max_steps*
    below 0 (or NaN) raises :class:`~repro.errors.ConfigError`.
    """

    def __init__(
        self,
        store: Optional[ArtifactStore] = None,
        backend: Optional[ArtifactBackend] = None,
        deadline_ms: Optional[float] = None,
        max_steps: Optional[int] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if store is not None and backend is not None:
            raise BackendConfigError(
                "Engine takes store= or backend=, not both: pass the "
                "backend to the store, ArtifactStore(backend=...)"
            )
        # Limits are checked before a store opens its backend.  An
        # unset deadline is read from the environment per derivation.
        if deadline_ms is not None:
            read(DEADLINE_MS, deadline_ms, "Engine")
        read(MAX_STEPS, max_steps, "Engine")
        #: The artifact store (an empty store is falsy, so test for
        #: ``None``).
        self.store = (
            store if store is not None else ArtifactStore(backend=backend)
        )
        #: Per-derivation wall-clock deadline (``None`` falls back to
        #: ``REPRO_DEADLINE_MS``; unset there means no deadline).
        self.deadline_ms = deadline_ms
        #: Per-derivation cooperative step budget (``None`` = none).
        self.max_steps = max_steps
        #: The derivation circuit breaker: the given one, else one from
        #: the ``REPRO_BREAKER_*`` environment variables or defaults.
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker.from_env()
        )

    # -- resilience --------------------------------------------------------------

    def _effective_deadline_ms(self) -> Optional[float]:
        if self.deadline_ms is not None:
            return self.deadline_ms
        return read(DEADLINE_MS)

    @contextmanager
    def _guard_scope(self) -> Iterator[None]:
        """Install a fresh guard for one derivation, unless the caller
        already holds one (nested derivations share the outer budget)."""
        if current_guard() is not None:
            yield
            return
        deadline = self._effective_deadline_ms()
        if deadline is None and self.max_steps is None:
            yield
            return
        with guarded(
            ExecutionGuard(deadline_ms=deadline, max_steps=self.max_steps)
        ):
            yield

    def _resilient(
        self, kind: str, fingerprint: str, builder: Callable[[], object]
    ) -> Callable[[], object]:
        """Wrap *builder* in the breaker gate, guard scope and fallback.

        An open circuit raises :class:`~repro.errors.CircuitOpenError`
        before *builder* runs.  Typed :class:`ReproError`\\ s pass
        straight through (they are already fail-closed), deadline trips
        counted.  An *unexpected* exception under the bulk kernel is
        counted in the store's ``degradations`` stat and retried once
        on the naive kernel: the kernels are semantically equivalent,
        so the rescued artifact is valid under the original key.  A
        crash the naive kernel does not rescue -- the retry's, or the
        first one under the naive kernel -- is a
        :class:`KernelFailureError` carrying every traceback and
        counts toward the breaker; any served build closes it.
        """

        def build() -> object:
            self.breaker.admit(kind, fingerprint)
            bulk_traceback = ""
            with self._guard_scope():
                try:
                    try:
                        value = builder()
                    except ReproError:
                        raise
                    except Exception:
                        if kernel_mode() != BULK:
                            raise
                        bulk_traceback = traceback.format_exc()
                        self.store.record_degradation(kind)
                    if bulk_traceback:
                        with use_kernel(NAIVE):
                            value = builder()
                except DeadlineExceededError:
                    self.store.record_deadline_hit(kind)
                    raise
                except ReproError:
                    raise
                except Exception:
                    self.breaker.record_failure(kind, fingerprint)
                    raise KernelFailureError(
                        f"derivation of {kind!r} failed under the bulk "
                        "kernel and again under the naive kernel"
                        if bulk_traceback
                        else f"naive-kernel derivation of {kind!r} failed "
                        "unexpectedly (no degradation rung below the "
                        "naive kernel)",
                        kind=kind,
                        bulk_traceback=bulk_traceback,
                        naive_traceback=traceback.format_exc(),
                    ) from None
            self.breaker.record_success(kind, fingerprint)
            return value

        return build

    # -- keys --------------------------------------------------------------------

    @staticmethod
    def _key(kind: str, *parts: object) -> ArtifactKey:
        return ArtifactKey(kind, stable_fingerprint(*parts), kernel_mode())

    @staticmethod
    def _space_key(space: StateSpace) -> ArtifactKey:
        """The canonical key under which a space anchors its dependents."""
        return ArtifactKey("space", space.fingerprint(), kernel_mode())

    # -- state spaces ------------------------------------------------------------

    def space(
        self,
        schema: Schema,
        assignment: TypeAssignment,
        max_candidates: int = 1 << 22,
        prune: bool = True,
    ) -> StateSpace:
        """The enumerated state space ``LDB(D, mu)`` (memoized)."""
        key = self._key(
            "space", "enumerate", schema, assignment, max_candidates, prune
        )
        space = self.store.get_or_build(
            key,
            self._resilient(
                "space",
                key.fingerprint,
                lambda: StateSpace.enumerate(
                    schema, assignment, max_candidates, prune
                ),
            ),
            persist=True,
        )
        return self._anchor_space(space)

    def space_from(self, spec: object, validate: bool = False) -> StateSpace:
        """A generator-built space from a fingerprintable *spec*.

        The spec must implement ``fingerprint()`` and
        ``build_state_space(validate=...)`` (the decomposition schemas'
        closed-form generators).
        """
        key = self._key("space", "spec", spec, validate)
        space = self.store.get_or_build(
            key,
            self._resilient(
                "space",
                key.fingerprint,
                lambda: spec.build_state_space(validate=validate),
            ),
            persist=is_content_addressed(spec),
        )
        return self._anchor_space(space)

    def _anchor_space(self, space: StateSpace) -> StateSpace:
        """Register *space* under its canonical content key.

        Request-level keys (enumeration parameters, generator specs) are
        aliases; derived artifacts always hang off the canonical key so
        that equal spaces reached by different routes share dependents.
        """
        canonical = self._space_key(space)
        return self.store.ensure(canonical, space)

    # -- derived artifacts -------------------------------------------------------

    def poset(self, space: StateSpace) -> FinitePoset:
        """The space's ⊥-poset, built through the resilience wrapper.

        The space memoizes its own poset, so this adds no store entry.
        """
        return self._resilient(
            "poset", space.fingerprint(), lambda: space.poset
        )()

    def analysis(self, view: View, space: StateSpace) -> StrongViewAnalysis:
        """The view's strong analysis over *space* (Definition 2.2/§2.3)."""
        key = self._key("analysis", view, space)
        return self.store.get_or_build(
            key,
            self._resilient(
                "analysis",
                key.fingerprint,
                lambda: analyze_view(view, space),
            ),
            dependencies=(self._space_key(space),),
            persist=is_content_addressed(view),
        )

    def algebra(
        self, space: StateSpace, candidates: Iterable[View]
    ) -> ComponentAlgebra:
        """The component algebra discovered from *candidates* (memoized)."""
        candidates = tuple(candidates)
        key = self._key(
            "algebra", space, tuple(v.fingerprint() for v in candidates)
        )
        persist = all(is_content_addressed(v) for v in candidates)
        return self.store.get_or_build(
            key,
            self._resilient(
                "algebra",
                key.fingerprint,
                lambda: ComponentAlgebra.discover(space, candidates),
            ),
            dependencies=(self._space_key(space),),
            persist=persist,
        )

    def procedure(
        self, view: View, algebra: ComponentAlgebra
    ) -> UpdateProcedure:
        """Update Procedure 3.2.3 for *view*, using the smallest strong
        join complement in *algebra* (canonical per Theorem 3.2.2)."""
        space = algebra.space
        member_fingerprints = tuple(
            component.view.fingerprint() for component in algebra
        )
        key = self._key("procedure", view, space, member_fingerprints)

        def build() -> UpdateProcedure:
            complements = strong_join_complements(view, algebra)
            if not complements:
                raise ReproError(
                    f"view {view.name!r} has no strong join complement in "
                    "the component algebra; register more candidates"
                )
            return UpdateProcedure(view, complements[0], space)

        persist = is_content_addressed(view) and all(
            is_content_addressed(component.view) for component in algebra
        )
        return self.store.get_or_build(
            key,
            self._resilient("procedure", key.fingerprint, build),
            dependencies=(self._space_key(space),),
            persist=persist,
        )

    # -- invalidation ------------------------------------------------------------

    def invalidate_space(self, space: StateSpace) -> int:
        """Drop the space's canonical artifact and everything derived
        from it, in memory and in the backend; returns the number of
        artifacts dropped.

        The request-level aliases that :meth:`space` and
        :meth:`space_from` memoize under are not derived from the
        canonical key, so they survive with their persisted entries:
        the next equal request returns the same space object, and its
        dependents are rebuilt.
        """
        return self.store.invalidate(self._space_key(space))

    # -- sessions ----------------------------------------------------------------

    def session(
        self,
        schema: Schema,
        assignment: TypeAssignment,
        space: Optional[StateSpace] = None,
    ) -> "Session":
        """A stateful update-servicing handle bound to this engine."""
        return Session(self, schema, assignment, space)

    # -- bookkeeping -------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, object]]:
        """One deep-copied snapshot of the engine's health.

        ``stats()["artifacts"]`` holds the store's namespaced cache
        counters (``memory`` / ``backend`` / ``leases``, see
        :meth:`ArtifactStore.stats`); ``stats()["breaker"]``
        holds the circuit breaker's per-derivation states.  Both are
        copies -- mutating the result cannot corrupt live bookkeeping,
        and concurrent readers get internally consistent views.
        """
        return {
            "artifacts": self.store.stats(),
            "breaker": self.breaker.snapshot(),
        }

    def health(self) -> Dict[str, object]:
        """A cheap liveness summary for hot serving endpoints.

        :meth:`stats` deep-copies every artifact counter -- right for an
        operator dashboard, wrong for a health probe hit on every poll.
        This reports only the scalars the serving tier needs: how many
        circuits are open and the soonest retry hint.  Cost is O(tracked circuits), independent of how
        many artifacts the store holds.
        """
        snapshot = self.breaker.snapshot()
        return {
            "open_circuits": snapshot["open"],
            "retry_hint_ms": self.breaker.retry_hint_ms(),
        }

    def reset_breaker(
        self, kind: Optional[str] = None, fingerprint: Optional[str] = None
    ) -> int:
        """Close circuits after an operator fix; returns how many.

        ``reset_breaker()`` forgets every tracked derivation;
        narrowing by *kind* (and optionally *fingerprint*) clears just
        those.  The next request runs the full build again.
        """
        return self.breaker.reset(kind, fingerprint)

    @contextmanager
    def activate(self) -> Iterator["Engine"]:
        """Make this engine the :func:`current_engine` within the block."""
        _ACTIVE_ENGINES.append(self)
        try:
            yield self
        finally:
            _ACTIVE_ENGINES.pop()


class Session:
    """One update-servicing session over a fixed ``(D, mu)``.

    The null model property -- the standing precondition of every
    Section 3 result -- is checked *before* any state-space work, so an
    inapplicable schema fails fast instead of after an exponential
    enumeration.
    """

    def __init__(
        self,
        engine: Engine,
        schema: Schema,
        assignment: TypeAssignment,
        space: Optional[StateSpace] = None,
    ) -> None:
        if not schema.has_null_model_property(assignment):
            raise ReproError(
                f"schema {schema.name!r} lacks the null model property; "
                "the results of Section 3 do not apply"
            )
        self.engine = engine
        self.schema = schema
        self.assignment = assignment
        self._space = space
        self._views: Dict[str, View] = {}
        self._algebra: Optional[ComponentAlgebra] = None
        #: Bound procedures by ``(view name, kernel mode)``, with the
        #: store generation they were fetched under; replaced, never
        #: cleared in place (see :meth:`procedure_for`).
        self._bound: Tuple[int, Dict[Tuple[str, str], UpdateProcedure]] = (
            engine.store.generation,
            {},
        )

    # -- the state space (built lazily through the engine) -----------------------

    @property
    def space(self) -> StateSpace:
        if self._space is None:
            self._space = self.engine.space(self.schema, self.assignment)
        return self._space

    # -- registration ------------------------------------------------------------

    def register_view(self, view: View) -> View:
        """Register a user view; returns it for chaining."""
        if (
            view.base_schema is not self.schema
            and view.base_schema != self.schema
        ):
            raise ReproError(
                f"view {view.name!r} is over a different base schema"
            )
        self._views[view.name] = view
        self._unbind()
        return view

    def view(self, name: str) -> View:
        """Look up a registered view."""
        try:
            return self._views[name]
        except KeyError:
            raise ReproError(
                f"no view named {name!r}; have {sorted(self._views)}"
            ) from None

    @property
    def views(self) -> Tuple[View, ...]:
        """All registered views."""
        return tuple(self._views.values())

    # -- component algebra -------------------------------------------------------

    def build_component_algebra(
        self, candidates: Iterable[View] = ()
    ) -> ComponentAlgebra:
        """Discover the component algebra from candidate views.

        Registered views are automatically included as candidates.
        """
        all_candidates = tuple(candidates) + tuple(self._views.values())
        algebra = self.engine.algebra(self.space, all_candidates)
        self._algebra = algebra
        self._unbind()
        return algebra

    @property
    def component_algebra(self) -> ComponentAlgebra:
        """The discovered algebra; raises if not built yet."""
        if self._algebra is None:
            raise ReproError(
                "component algebra not built; call build_component_algebra()"
            )
        return self._algebra

    # -- update servicing --------------------------------------------------------

    def procedure_for(self, view_name: str) -> UpdateProcedure:
        """The canonical update procedure for a registered view.

        The first call per view and kernel mode fetches it from
        :meth:`Engine.procedure` and binds it to the session; later
        calls return the bound procedure without touching the store.
        :meth:`register_view` and :meth:`build_component_algebra`
        unbind every procedure, and so does any store invalidation
        (:meth:`Engine.invalidate_space`).  A procedure fetched while
        an invalidation ran is returned but not bound.
        """
        generation = self.engine.store.generation
        bound_generation, bound = self._bound
        if bound_generation != generation:
            bound = {}
            self._bound = (generation, bound)
        key = (view_name, kernel_mode())
        procedure = bound.get(key)
        if procedure is None:
            # The map is read before the view and the algebra: an unbind
            # replaces it after they change, so a procedure built from
            # the old ones lands only in a map no later lookup reads.
            procedure = self.engine.procedure(
                self.view(view_name), self.component_algebra
            )
            if self.engine.store.generation == generation:
                bound[key] = procedure
        return procedure

    def _unbind(self) -> None:
        """Drop every bound procedure (the views or the algebra changed)."""
        self._bound = (self.engine.store.generation, {})

    def update(
        self,
        view_name: str,
        base_state: DatabaseInstance,
        view_target: DatabaseInstance,
    ) -> UpdateOutcome:
        """Service one view-update request (Procedure 3.2.3).

        Never raises for the formal "undefined" outcome; inspect
        :attr:`UpdateOutcome.accepted` / :attr:`UpdateOutcome.reason`,
        or call :meth:`UpdateOutcome.require` for the legacy behaviour.
        Configuration errors (unknown view, no complement) still raise
        -- always as :class:`ReproError` subclasses: anything
        unexpected that escapes the engine's kernel fallback is
        wrapped in :class:`UnexpectedFailureError` (fail closed, never
        a bare ``KeyError``/``AttributeError``).
        """
        started = time.perf_counter()
        try:
            return self._update(view_name, base_state, view_target, started)
        except ReproError:
            raise
        except Exception as exc:
            raise UnexpectedFailureError(
                f"internal failure servicing an update of view "
                f"{view_name!r}: {type(exc).__name__}: {exc}"
            ) from exc

    def _update(
        self,
        view_name: str,
        base_state: DatabaseInstance,
        view_target: DatabaseInstance,
        started: float,
    ) -> UpdateOutcome:
        if base_state not in self.space:
            return UpdateOutcome(
                view_name=view_name,
                accepted=False,
                base_before=base_state,
                view_target=view_target,
                reason="illegal-base-state",
                message="current base state is not a legal database",
                elapsed=time.perf_counter() - started,
            )
        procedure = self.procedure_for(view_name)
        complement = procedure.complement.name
        filter_component = procedure.filter_component.name
        try:
            solution = procedure.apply(base_state, view_target)
        except UpdateRejected as exc:
            return UpdateOutcome(
                view_name=view_name,
                accepted=False,
                base_before=base_state,
                view_target=view_target,
                complement=complement,
                filter_component=filter_component,
                reason=exc.reason,
                message=str(exc),
                elapsed=time.perf_counter() - started,
            )
        evidence = (
            f"constant complement: {complement!r} held fixed",
            f"target filtered through component {filter_component!r}",
            "reflection is complement-independent and admissible "
            "(Theorem 3.2.2)",
        )
        return UpdateOutcome(
            view_name=view_name,
            accepted=True,
            base_before=base_state,
            view_target=view_target,
            base_after=solution,
            complement=complement,
            filter_component=filter_component,
            evidence=evidence,
            elapsed=time.perf_counter() - started,
        )


# -- the current-engine protocol ---------------------------------------------------

_DEFAULT_ENGINE: Optional[Engine] = None
_ACTIVE_ENGINES: List[Engine] = []


def default_engine() -> Engine:
    """The process-wide fallback engine (created on first use)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine()
    return _DEFAULT_ENGINE


def set_default_engine(engine: Optional[Engine]) -> None:
    """Replace the process-wide fallback engine (``None`` resets it)."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = engine


def current_engine() -> Engine:
    """The innermost :meth:`Engine.activate`\\ d engine, else the default."""
    if _ACTIVE_ENGINES:
        return _ACTIVE_ENGINES[-1]
    return default_engine()
