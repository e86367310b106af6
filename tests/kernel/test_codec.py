"""Unit tests for :class:`repro.kernel.bitspace.TupleCodec`."""

import pytest

from repro.errors import ReproError
from repro.kernel.bitspace import TupleCodec
from repro.relational.enumeration import (
    StateSpace,
    enumerate_instances,
    tuple_universe,
)
from repro.relational.instances import DatabaseInstance
from repro.relational.relations import Relation
from repro.relational.schema import RelationSchema, Schema
from repro.typealgebra.assignment import TypeAssignment


@pytest.fixture
def schema():
    return Schema(
        name="D",
        relations=(
            RelationSchema("R", ("A", "B")),
            RelationSchema("S", ("A",)),
        ),
    )


@pytest.fixture
def assignment():
    return TypeAssignment.from_names({"A": ("a1", "a2"), "B": ("b1",)})


def universe_codec(schema, assignment):
    """A codec over the full typed tuple universe of *schema*."""
    return TupleCodec(
        schema.arities(),
        {
            rel.name: tuple_universe(schema, rel.name, assignment)
            for rel in schema.relations
        },
    )


class TestFromUniverse:
    def test_width_is_total_universe_size(self, schema, assignment):
        codec = universe_codec(schema, assignment)
        # |R universe| = 2*1, |S universe| = 2.
        assert codec.width == 4

    def test_round_trip_all_states(self, schema, assignment):
        codec = universe_codec(schema, assignment)
        for state in enumerate_instances(schema, assignment):
            assert codec.decode(codec.encode(state)) == state

    def test_set_operations_are_integer_operations(self, schema, assignment):
        codec = universe_codec(schema, assignment)
        states = list(enumerate_instances(schema, assignment))
        for a in states[:6]:
            for b in states[:6]:
                ea, eb = codec.encode(a), codec.encode(b)
                assert a.issubset(b) == (ea & ~eb == 0)
                assert codec.encode(a.union(b)) == ea | eb
                assert codec.encode(a.intersection(b)) == ea & eb
                assert codec.encode(a.symmetric_difference(b)) == ea ^ eb

    def test_out_of_table_row_raises(self, schema, assignment):
        codec = universe_codec(schema, assignment)
        bad = DatabaseInstance(
            {"R": Relation([("zzz", "b1")], 2), "S": Relation((), 1)}
        )
        with pytest.raises(ReproError, match="outside the"):
            codec.encode(bad)

    def test_decode_rejects_out_of_range_mask(self, schema, assignment):
        codec = universe_codec(schema, assignment)
        with pytest.raises(ReproError, match="outside the"):
            codec.decode(1 << codec.width)


class TestFromInstances:
    def test_covers_out_of_universe_rows(self, schema, assignment):
        # Generator-built spaces may contain rows no typed universe has;
        # the instance-derived codec must still encode them.
        odd = DatabaseInstance(
            {"R": Relation([("zzz", "b1")], 2), "S": Relation((), 1)}
        )
        codec = TupleCodec.from_instances([odd, schema.empty_instance()])
        assert codec.decode(codec.encode(odd)) == odd

    def test_distinct_instances_get_distinct_masks(self, schema, assignment):
        states = list(enumerate_instances(schema, assignment))
        codec = TupleCodec.from_instances(states)
        masks = codec.encode_all(states)
        assert len(set(masks)) == len(states)

    def test_zero_instances_raises(self):
        with pytest.raises(ReproError, match="zero instances"):
            TupleCodec.from_instances([])

    def test_unknown_relation_raises(self, schema):
        a = DatabaseInstance({"R": Relation((), 2)})
        b = DatabaseInstance({"T": Relation((), 1)})
        with pytest.raises(ReproError, match="unknown relation"):
            TupleCodec.from_instances([a, b])

    def test_deterministic_layout(self, schema, assignment):
        states = list(enumerate_instances(schema, assignment))
        first = TupleCodec.from_instances(states)
        second = TupleCodec.from_instances(states)
        assert first.slots == second.slots
        assert first.encode_all(states) == second.encode_all(states)


class TestStateSpaceIntegration:
    def test_space_masks_match_codec(self, schema, assignment):
        space = StateSpace.enumerate(schema, assignment)
        assert space.masks == space.codec.encode_all(space.states)
        for state, mask in zip(space.states, space.masks):
            assert space.codec.decode(mask) == state
