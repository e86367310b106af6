"""Chaos suite: every fault point, both kernels, one invariant.

``Session.update`` must be fail-closed: whatever fault fires anywhere
below it -- cache I/O, kernel crashes, enumeration faults -- the caller
sees either a structured :class:`UpdateOutcome` or a typed
:class:`ReproError` subclass.  Never a bare ``KeyError``,
``AttributeError``, or an injected ``RuntimeError``.
"""

import pytest

from repro.decomposition.projections import projection_view
from repro.engine.backends import LocalDirBackend
from repro.engine.engine import Engine, UpdateOutcome
from repro.engine.store import ArtifactStore
from repro.errors import ReproError
from repro.kernel.config import BULK, NAIVE, use_kernel
from repro.resilience.faults import (
    FAULT_POINTS,
    FaultPlan,
    FaultRule,
    inject,
)
from repro.typealgebra.algebra import NULL

VIEW = "Γ_ABD"


def local_store(path):
    """A store on a local directory whose I/O retries do not sleep."""
    backend = LocalDirBackend(str(path), sleep=lambda seconds: None)
    return ArtifactStore(backend=backend)


def make_session(engine, small_chain, space=None):
    session = engine.session(
        small_chain.schema, small_chain.assignment, space
    )
    session.register_view(projection_view(small_chain, ("A", "B", "D")))
    session.build_component_algebra(small_chain.all_component_views())
    return session


def make_request(session, small_chain):
    state = small_chain.state_from_edges(
        [{("a1", "b1")}, set(), {("c1", "d1")}]
    )
    view = session.view(VIEW)
    view_state = view.apply(state, small_chain.assignment)
    return state, view_state.deleting("R_ABD", ("a1", "b1", NULL))


@pytest.mark.parametrize("kernel", [BULK, NAIVE])
@pytest.mark.parametrize("point", FAULT_POINTS)
class TestFailClosedUpdates:
    def test_update_returns_outcome_or_typed_error(
        self, point, kernel, small_chain, small_space, tmp_path
    ):
        """An always-on fault at *point*: the update may fail, but only
        closed -- with a ``ReproError`` -- never with a leaked internal
        exception."""
        with use_kernel(kernel):
            engine = Engine(store=local_store(tmp_path))
            session = make_session(engine, small_chain, small_space)
            state, target = make_request(session, small_chain)
            plan = FaultPlan(seed=13, rules=(FaultRule(point),))
            with inject(plan):
                try:
                    outcome = session.update(VIEW, state, target)
                except ReproError:
                    return  # typed failure: within the contract
                assert isinstance(outcome, UpdateOutcome)

    def test_whole_pipeline_never_leaks_internal_errors(
        self, point, kernel, small_chain, small_space, tmp_path
    ):
        """Same invariant with the fault active from session creation
        onward: registration and algebra discovery are allowed to fail,
        but only with typed errors."""
        with use_kernel(kernel):
            engine = Engine(store=local_store(tmp_path))
            plan = FaultPlan(seed=13, rules=(FaultRule(point),))
            with inject(plan):
                try:
                    session = make_session(engine, small_chain, small_space)
                    state, target = make_request(session, small_chain)
                    outcome = session.update(VIEW, state, target)
                except ReproError:
                    return
                assert isinstance(outcome, UpdateOutcome)


@pytest.mark.parametrize("kernel", [BULK, NAIVE])
class TestColdVersusCachedUnderFaults:
    def test_cold_and_cached_runs_agree(
        self, kernel, small_chain, small_space, tmp_path
    ):
        """With the light background plan active, a cold run (building
        and persisting every artifact) and a warm run (reloading them
        through faulty I/O) must service the same update identically."""

        def run(seed):
            with use_kernel(kernel), inject(FaultPlan.light(seed)):
                engine = Engine(store=local_store(tmp_path))
                session = make_session(engine, small_chain, small_space)
                state, target = make_request(session, small_chain)
                return session.update(VIEW, state, target)

        cold = run(seed=101)
        cached = run(seed=202)
        assert cold.accepted and cached.accepted
        assert cold.base_after == cached.base_after
        assert cold.complement == cached.complement


class TestLightPlanIsAbsorbed:
    def test_update_succeeds_under_the_background_plan(
        self, small_chain, small_space, tmp_path
    ):
        """The plan CI runs the whole suite under must be invisible:
        every injected fault is absorbed, the update is accepted."""
        engine = Engine(store=local_store(tmp_path))
        with inject(FaultPlan.light(seed=1)):
            session = make_session(engine, small_chain, small_space)
            state, target = make_request(session, small_chain)
            outcome = session.update(VIEW, state, target)
        assert outcome.accepted
