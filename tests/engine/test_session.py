"""Unit tests for :class:`repro.engine.engine.Engine` and its sessions."""

import sys
import threading

import pytest

from repro.engine.backends import LocalDirBackend
from repro.engine.backends.sqlitedb import SQLiteBackend
from repro.engine.engine import Engine, current_engine, default_engine
from repro.engine.store import ArtifactKey, ArtifactStore
from repro.errors import BackendConfigError, ReproError, UpdateRejected
from repro.kernel.config import BULK, NAIVE, kernel_mode, use_kernel
from repro.relational.enumeration import StateSpace
from repro.resilience.faults import FaultPlan, FaultRule, inject
from repro.typealgebra.algebra import NULL
from repro.decomposition.projections import projection_view


@pytest.fixture(scope="module")
def engine():
    return Engine()


@pytest.fixture(scope="module")
def session(engine, small_chain, small_space):
    session = engine.session(
        small_chain.schema, small_chain.assignment, small_space
    )
    session.register_view(projection_view(small_chain, ("A", "B", "D")))
    session.build_component_algebra(small_chain.all_component_views())
    return session


class TestNullModelGate:
    def test_checked_before_any_state_space_work(self, two_unary):
        """Satellite: the §3 precondition fails fast, pre-enumeration."""
        from repro.logic.formulas import Exists, RelAtom
        from repro.logic.terms import Var
        from repro.relational.constraints import FormulaConstraint

        x = Var("x")
        constrained = two_unary.schema.with_constraints(
            [FormulaConstraint(Exists(x, RelAtom("R", (x,))), "R-nonempty")]
        )
        fresh = Engine()
        with pytest.raises(ReproError, match="null model property"):
            fresh.session(constrained, two_unary.assignment)
        # The gate rejected before the lazy space was ever requested.
        assert "space" not in fresh.stats()["artifacts"]


class TestArtifactSharing:
    def test_equal_requests_share_one_space(self, engine, two_unary):
        s1 = engine.space(two_unary.schema, two_unary.assignment)
        s2 = engine.space(two_unary.schema, two_unary.assignment)
        assert s1 is s2
        assert engine.stats()["artifacts"]["memory"]["space"]["hits"] >= 1

    def test_spaces_compare_by_fingerprint(self, engine, two_unary):
        s1 = engine.space(two_unary.schema, two_unary.assignment)
        assert s1 == s1
        assert hash(s1) == hash(s1)
        assert s1 != object()

    def test_warm_session_reuses_algebra(
        self, engine, session, small_chain, small_space
    ):
        before = engine.stats()["artifacts"]["memory"]["algebra"]["hits"]
        second = engine.session(
            small_chain.schema, small_chain.assignment, small_space
        )
        second.register_view(projection_view(small_chain, ("A", "B", "D")))
        algebra = second.build_component_algebra(
            small_chain.all_component_views()
        )
        assert algebra is session.component_algebra
        assert (
            engine.stats()["artifacts"]["memory"]["algebra"]["hits"]
            == before + 1
        )

    def test_activate_scopes_current_engine(self, engine):
        assert current_engine() is default_engine()
        with engine.activate():
            assert current_engine() is engine
        assert current_engine() is default_engine()


class TestPoset:
    """``Engine.poset`` runs the space's own memo through the resilience
    wrapper; the store keeps no poset."""

    def test_returns_the_space_poset_without_a_store_entry(self, two_unary):
        engine = Engine()
        with inject(None):
            space = engine.space(two_unary.schema, two_unary.assignment)
            entries = len(engine.store)
            assert engine.poset(space) is space.poset
            assert engine.poset(space) is space.poset
            assert len(engine.store) == entries
            assert "poset" not in engine.stats()["artifacts"]["memory"]

    def test_bulk_crash_is_retried_on_the_naive_kernel(self, two_unary):
        engine = Engine()
        fresh = StateSpace.from_states(
            two_unary.schema,
            two_unary.assignment,
            two_unary.space.states,
            validate=False,
        )
        plan = FaultPlan(rules=(FaultRule("kernel.poset", kernel=BULK),))
        with use_kernel(BULK), inject(plan):
            poset = engine.poset(fresh)
        assert poset is fresh.poset
        assert poset.leq_matrix() == two_unary.space.poset.leq_matrix()
        counters = engine.stats()["artifacts"]["memory"]["poset"]
        assert counters["degradations"] == 1
        assert counters["builds"] == 0


class TestGivenStore:
    """Exact counters below: the ambient fault plan is suspended."""

    def test_engine_keeps_the_given_store(self, tmp_path, two_unary):
        store = ArtifactStore(backend=LocalDirBackend(str(tmp_path)))
        engine = Engine(store=store)
        assert engine.store is store  # empty, hence falsy, yet kept
        with inject(None):
            engine.space(two_unary.schema, two_unary.assignment)
            second = Engine(
                store=ArtifactStore(backend=LocalDirBackend(str(tmp_path)))
            )
            second.space(two_unary.schema, two_unary.assignment)
        artifacts = second.stats()["artifacts"]
        assert artifacts["backend"]["kinds"]["space"]["disk_hits"] == 1
        assert artifacts["memory"]["space"]["builds"] == 0

    def test_store_and_backend_together_fail_typed(self, tmp_path):
        store = ArtifactStore(backend=LocalDirBackend(str(tmp_path)))
        backend = SQLiteBackend(str(tmp_path / "artifacts.db"))
        with pytest.raises(BackendConfigError, match="not both"):
            Engine(store=store, backend=backend)

    def test_invalidate_space_keeps_the_request_alias(
        self, tmp_path, small_chain
    ):
        """The canonical space, the algebra and the procedure go, from
        memory and from disk; the ``space_from`` request alias is not
        derived from the space, so it survives with its file."""

        def kinds_on_disk():
            return sorted(
                path.name.split("-")[0] for path in tmp_path.glob("*.pkl")
            )

        engine = Engine(
            store=ArtifactStore(backend=LocalDirBackend(str(tmp_path)))
        )
        with inject(None):
            space = engine.space_from(small_chain)
            session = engine.session(
                small_chain.schema, small_chain.assignment, space
            )
            session.register_view(
                projection_view(small_chain, ("A", "B", "D"))
            )
            session.build_component_algebra(
                small_chain.all_component_views()
            )
            session.procedure_for("Γ_ABD")
            assert len(engine.store) == 4
            assert kinds_on_disk() == ["algebra", "procedure", "space"]

            assert engine.invalidate_space(space) == 3
            assert len(engine.store) == 1
            canonical = ArtifactKey(
                "space", space.fingerprint(), kernel_mode()
            )
            assert canonical not in engine.store
            assert kinds_on_disk() == ["space"]
            assert engine.space_from(small_chain) is space
            session.build_component_algebra(
                small_chain.all_component_views()
            )
        memory = engine.stats()["artifacts"]["memory"]
        assert memory["space"]["builds"] == 1
        assert memory["algebra"]["builds"] == 2


class TestSessionRegistration:
    def test_foreign_view_rejected(self, session, two_unary):
        with pytest.raises(ReproError):
            session.register_view(two_unary.gamma1)

    def test_unknown_view_rejected(self, session):
        with pytest.raises(ReproError, match="no view named"):
            session.view("nope")

    def test_algebra_required_before_procedures(
        self, engine, small_chain, small_space
    ):
        fresh = engine.session(
            small_chain.schema, small_chain.assignment, small_space
        )
        with pytest.raises(ReproError, match="not built"):
            fresh.component_algebra


class TestUpdateOutcome:
    def _request(self, session, small_chain, kept=("a1", "b1", NULL)):
        state = small_chain.state_from_edges(
            [{("a1", "b1")}, set(), {("c1", "d1")}]
        )
        view = session.view("Γ_ABD")
        view_state = view.apply(state, small_chain.assignment)
        return state, view_state.deleting("R_ABD", kept)

    def test_accepted_outcome_fields(self, session, small_chain):
        state, target = self._request(session, small_chain)
        outcome = session.update("Γ_ABD", state, target)
        assert outcome.accepted
        assert outcome.complement == "Γ°BCD"
        assert outcome.base_after is not None
        assert outcome.evidence
        assert outcome.reason == ""
        assert outcome.require() == outcome.base_after
        view = session.view("Γ_ABD")
        assert view.apply(outcome.base_after, small_chain.assignment) == target

    def test_rejected_outcome_fields(self, session, small_chain):
        state, target = self._request(session, small_chain, (NULL, NULL, "d1"))
        outcome = session.update("Γ_ABD", state, target)
        assert not outcome.accepted
        assert outcome.base_after is None
        assert outcome.reason == "image-mismatch"
        assert outcome.message
        with pytest.raises(UpdateRejected):
            outcome.require()

    def test_illegal_base_state_is_a_value_not_a_raise(
        self, session, small_chain
    ):
        from repro.relational.instances import DatabaseInstance
        from repro.relational.relations import Relation

        bogus = DatabaseInstance({"R": Relation({("x", "y", "z", "w")}, 4)})
        outcome = session.update("Γ_ABD", bogus, bogus)
        assert not outcome.accepted
        assert outcome.reason == "illegal-base-state"

    def test_procedures_are_memoized(
        self, engine, session, small_chain, small_space
    ):
        first = session.procedure_for("Γ_ABD")
        counters = engine.stats()["artifacts"]["memory"]["procedure"]
        hits_before = counters["hits"]
        second = engine.session(
            small_chain.schema, small_chain.assignment, small_space
        )
        second.register_view(projection_view(small_chain, ("A", "B", "D")))
        second.build_component_algebra(small_chain.all_component_views())
        assert second.procedure_for("Γ_ABD") is first
        counters = engine.stats()["artifacts"]["memory"]["procedure"]
        assert counters["hits"] == hits_before + 1


class TestBoundProcedures:
    """A session binds each procedure on first use and never serves a
    stale one: every case below changes what the procedure is derived
    from and checks that the next lookup follows the change.

    Each test owns its engine, on its own cache directory, and runs
    with the ambient fault plan suspended, so the counters are exact.
    """

    @pytest.fixture
    def fresh(self, tmp_path, small_chain):
        engine = Engine(
            store=ArtifactStore(backend=LocalDirBackend(str(tmp_path)))
        )
        with inject(None):
            space = engine.space_from(small_chain)
            session = engine.session(
                small_chain.schema, small_chain.assignment, space
            )
            session.register_view(
                projection_view(small_chain, ("A", "B", "D"))
            )
            session.build_component_algebra(small_chain.all_component_views())
            yield engine, session

    @staticmethod
    def _memory(engine, kind="procedure"):
        return engine.stats()["artifacts"]["memory"][kind]

    @staticmethod
    def _request(session, small_chain):
        state = small_chain.state_from_edges(
            [{("a1", "b1")}, set(), {("c1", "d1")}]
        )
        view_state = session.view("Γ_ABD").apply(state, small_chain.assignment)
        return state, view_state.deleting("R_ABD", ("a1", "b1", NULL))

    def test_bound_lookups_skip_the_store(self, fresh, small_chain):
        engine, session = fresh
        first = session.procedure_for("Γ_ABD")
        before = dict(self._memory(engine))
        state, target = self._request(session, small_chain)
        for _ in range(5):
            assert session.procedure_for("Γ_ABD") is first
            assert session.update("Γ_ABD", state, target).accepted
        assert self._memory(engine) == before

    def test_lookup_errors_are_unchanged(self, fresh, small_chain):
        engine, session = fresh
        session.procedure_for("Γ_ABD")
        with pytest.raises(ReproError, match="no view named"):
            session.procedure_for("nope")
        unbuilt = engine.session(
            small_chain.schema, small_chain.assignment, session.space
        )
        unbuilt.register_view(session.view("Γ_ABD"))
        with pytest.raises(ReproError, match="not built"):
            unbuilt.procedure_for("Γ_ABD")

    def test_rebuilt_algebra_unbinds(self, fresh, small_chain):
        engine, session = fresh
        first = session.procedure_for("Γ_ABD")
        smaller = session.build_component_algebra(
            (
                small_chain.component_view([0]),
                small_chain.component_view([1, 2]),
            )
        )
        assert len(smaller) == 4
        second = session.procedure_for("Γ_ABD")
        assert second is not first
        assert second is engine.procedure(session.view("Γ_ABD"), smaller)

    def test_replaced_view_unbinds(self, fresh, small_chain):
        _, session = fresh
        first = session.procedure_for("Γ_ABD")
        replacement = small_chain.component_view([0], name="Γ_ABD")
        session.register_view(replacement)
        second = session.procedure_for("Γ_ABD")
        assert first.view is not replacement
        assert second.view is replacement

    def test_invalidate_space_unbinds(self, fresh):
        engine, session = fresh
        first = session.procedure_for("Γ_ABD")
        builds = self._memory(engine)["builds"]
        generation = engine.store.generation
        engine.invalidate_space(session.space)
        assert engine.store.generation == generation + 1
        second = session.procedure_for("Γ_ABD")
        assert second is not first
        assert self._memory(engine)["builds"] == builds + 1
        assert session.procedure_for("Γ_ABD") is second

    def test_kernel_mode_is_part_of_the_binding(self, fresh):
        engine, session = fresh
        with use_kernel(BULK):
            bulk = session.procedure_for("Γ_ABD")
        with use_kernel(NAIVE):
            naive = session.procedure_for("Γ_ABD")
            assert naive is engine.procedure(
                session.view("Γ_ABD"), session.component_algebra
            )
        assert naive is not bulk
        with use_kernel(BULK):
            assert session.procedure_for("Γ_ABD") is bulk

    def test_invalidation_racing_updates(self, fresh, small_chain):
        """One thread invalidates while others update: after each
        invalidation returns, no lookup serves the procedure bound
        before it, and every update keeps its serial outcome."""
        engine, session = fresh
        state, target = self._request(session, small_chain)
        expected = session.update("Γ_ABD", state, target).base_after
        retired = {}  # id(procedure) -> first generation it is stale in
        keep = []  # retired procedures stay alive, so ids stay unique
        stop = threading.Event()
        errors = []

        def updater():
            try:
                while not stop.is_set():
                    generation = engine.store.generation
                    procedure = session.procedure_for("Γ_ABD")
                    stale_from = retired.get(id(procedure))
                    assert stale_from is None or stale_from > generation
                    outcome = session.update("Γ_ABD", state, target)
                    assert outcome.base_after == expected
            except BaseException as exc:  # surfaced below
                errors.append(exc)
                stop.set()

        threads = [threading.Thread(target=updater) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for _ in range(15):
                old = session.procedure_for("Γ_ABD")
                keep.append(old)
                retired[id(old)] = engine.store.generation + 1
                engine.invalidate_space(session.space)
                assert session.procedure_for("Γ_ABD") is not old
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
