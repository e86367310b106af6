"""Unit tests for :class:`repro.engine.engine.Engine` and its sessions."""

import pytest

from repro.engine.backends.sqlitedb import SQLiteBackend
from repro.engine.engine import Engine, current_engine, default_engine
from repro.engine.store import ArtifactKey, ArtifactStore
from repro.errors import BackendConfigError, ReproError, UpdateRejected
from repro.kernel.config import kernel_mode
from repro.resilience.faults import inject
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


class TestGivenStore:
    """Exact counters below: the ambient fault plan is suspended."""

    def test_engine_keeps_the_given_store(self, tmp_path, two_unary):
        store = ArtifactStore(cache_dir=str(tmp_path))
        engine = Engine(store=store)
        assert engine.store is store  # empty, hence falsy, yet kept
        with inject(None):
            engine.space(two_unary.schema, two_unary.assignment)
            second = Engine(store=ArtifactStore(cache_dir=str(tmp_path)))
            second.space(two_unary.schema, two_unary.assignment)
        artifacts = second.stats()["artifacts"]
        assert artifacts["backend"]["kinds"]["space"]["disk_hits"] == 1
        assert artifacts["memory"]["space"]["builds"] == 0

    def test_store_and_backend_together_fail_typed(self, tmp_path):
        store = ArtifactStore(cache_dir=str(tmp_path))
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

        engine = Engine(store=ArtifactStore(cache_dir=str(tmp_path)))
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
