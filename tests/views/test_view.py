"""Unit tests for :mod:`repro.views.view`."""

import gc
import pickle
import sys
import threading

import pytest

from repro.algebra.partitions import Partition
from repro.errors import NotSurjectiveError, SchemaError
from repro.kernel.config import BULK, NAIVE, use_kernel
from repro.relational.enumeration import StateSpace
from repro.relational.queries import RelationRef
from repro.relational.schema import RelationSchema, Schema
from repro.views.mappings import QueryMapping
from repro.views.view import View, identity_view, zero_view


class TestConstruction:
    def test_schema_signature_checked(self, two_unary):
        view_schema = Schema(
            name="V",
            relations=(RelationSchema("X", ("A", "B")),),  # wrong arity
            enforce_column_types=False,
        )
        with pytest.raises(SchemaError):
            View(
                "bad",
                two_unary.schema,
                view_schema,
                QueryMapping({"X": RelationRef.of(two_unary.schema, "R")}),
            )

    def test_none_schema_means_image(self, two_unary):
        assert two_unary.gamma1.view_schema is None


class TestApplication:
    def test_apply(self, two_unary):
        image = two_unary.gamma1.apply(two_unary.initial, two_unary.assignment)
        assert image.relation("R").rows == {("a1",), ("a2",)}

    def test_image_table_aligned(self, two_unary):
        table = two_unary.gamma1.image_table(two_unary.space)
        assert len(table) == len(two_unary.space)
        for state, image in zip(two_unary.space.states, table):
            assert image == two_unary.gamma1.apply(state, two_unary.assignment)

    def test_image_table_cached(self, two_unary):
        first = two_unary.gamma1.image_table(two_unary.space)
        second = two_unary.gamma1.image_table(two_unary.space)
        assert first is second

    def test_image_states_distinct(self, two_unary):
        images = two_unary.gamma1.image_states(two_unary.space)
        assert len(images) == 16  # 2^4 subsets of the domain
        assert len(set(images)) == len(images)

    def test_preimages(self, two_unary):
        image = two_unary.gamma1.apply(two_unary.initial, two_unary.assignment)
        preimages = two_unary.gamma1.preimages(two_unary.space, image)
        assert two_unary.initial in preimages
        # Gamma1 forgets S: one preimage per S-subset.
        assert len(preimages) == 16


class TestKernel:
    def test_kernel_blocks(self, two_unary):
        kernel = two_unary.gamma1.kernel(two_unary.space)
        assert len(kernel) == 16
        assert kernel.ground_set == frozenset(two_unary.space.states)

    def test_identity_kernel_discrete(self, two_unary):
        identity = identity_view(two_unary.schema)
        assert identity.kernel(two_unary.space).is_discrete()

    def test_zero_kernel_indiscrete(self, two_unary):
        zero = zero_view(two_unary.schema)
        assert zero.kernel(two_unary.space).is_indiscrete()


class TestSurjectivity:
    def test_join_view_not_surjective_without_jd(self, spj):
        """Example 1.1.1: the plain view schema admits non-image states."""
        view_space = spj.view_space_plain()
        gap = spj.join_view.surjectivity_gap(spj.space, view_space)
        assert gap  # states violating the implied JD
        with pytest.raises(NotSurjectiveError):
            spj.join_view.check_surjective(spj.space, view_space)

    def test_join_view_surjective_with_jd(self, spj):
        """Adding the implied JD makes the mapping surjective."""
        view_space = spj.view_space_with_jd()
        assert spj.join_view.is_surjective_onto(spj.space, view_space)
        spj.join_view.check_surjective(spj.space, view_space)

    def test_view_space_is_image(self, two_unary):
        view_space = two_unary.gamma1.view_space(two_unary.space)
        assert isinstance(view_space, StateSpace)
        assert set(view_space.states) == set(
            two_unary.gamma1.image_states(two_unary.space)
        )


def copy_of(space, states=None):
    """A fresh space over *states* (default: all of *space*'s)."""
    return StateSpace.from_states(
        space.schema,
        space.assignment,
        space.states if states is None else states,
        validate=False,
    )


class TestTablesLiveOnTheSpace:
    """A view's image, kernel and fibres are memoized on the space."""

    def test_no_table_outlives_its_space(self, two_unary):
        """Spaces freed and rebuilt in a loop may reuse one address; each
        must still get the tables of its own states."""
        view = two_unary.gamma1
        assignment = two_unary.assignment
        states = two_unary.space.states
        halves = (states[::2], states[1::2])
        for _ in range(20):
            for half in halves:
                space = copy_of(two_unary.space, half)
                images = tuple(view.apply(s, assignment) for s in half)
                fibres = {}
                for state, image in zip(space.states, images):
                    fibres.setdefault(image, []).append(state)
                assert view.image_table(space) == images
                assert view.kernel(space) == Partition.from_kernel(
                    half, lambda s: view.apply(s, assignment)
                )
                assert view.preimage_index(space) == {
                    image: tuple(group) for image, group in fibres.items()
                }
                del space
                gc.collect()

    def test_each_kernel_builds_its_own_table(self, two_unary):
        space = copy_of(two_unary.space)
        with use_kernel(BULK):
            bulk = two_unary.gamma1.image_table(space)
        with use_kernel(NAIVE):
            naive = two_unary.gamma1.image_table(space)
            assert two_unary.gamma1.image_table(space) is naive
        assert naive == bulk
        assert naive is not bulk

    def test_equal_views_share_one_table(self, two_unary):
        def gamma_r():
            return View(
                "Γr",
                two_unary.schema,
                None,
                QueryMapping({"R": RelationRef.of(two_unary.schema, "R")}),
            )

        first, second = gamma_r(), gamma_r()
        space = copy_of(two_unary.space)
        assert first is not second
        assert first.image_table(space) is second.image_table(space)
        assert first.kernel(space) is second.kernel(space)
        assert first.preimage_index(space) is second.preimage_index(space)

    def test_concurrent_first_uses_share_one_table(self, two_unary):
        """Threads racing on a fresh space may each build; all of them
        must get the one table the space keeps."""
        space = copy_of(two_unary.space)
        view = two_unary.gamma1
        workers = 8
        barrier = threading.Barrier(workers)
        tables = []

        def first_use():
            barrier.wait(timeout=10)
            tables.append(view.image_table(space))

        threads = [threading.Thread(target=first_use) for _ in range(workers)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(tables) == workers
        kept = view.image_table(space)
        assert all(table is kept for table in tables)

    def test_tables_are_not_pickled(self, two_unary):
        space = copy_of(two_unary.space)
        before = pickle.dumps(space)
        two_unary.gamma1.kernel(space)
        two_unary.gamma1.preimage_index(space)
        assert pickle.dumps(space) == before
