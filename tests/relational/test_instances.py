"""Unit tests for :mod:`repro.relational.instances`."""

import pytest

from repro.errors import ArityError, UnknownRelationError
from repro.relational.instances import DatabaseInstance, sorted_instances
from repro.relational.relations import Relation


@pytest.fixture
def instance():
    return DatabaseInstance(
        {"R": {("a", "b")}, "S": {("x",), ("y",)}}
    )


class TestConstruction:
    def test_coerces_iterables(self, instance):
        assert isinstance(instance.relation("R"), Relation)

    def test_empty_constructor(self):
        inst = DatabaseInstance.empty({"R": 2, "S": 1})
        assert inst.is_empty()
        assert inst.relation("R").arity == 2

    def test_no_relations_is_valid(self):
        inst = DatabaseInstance({})
        assert inst.is_empty()
        assert inst.relation_names == ()

    def test_unknown_relation(self, instance):
        with pytest.raises(UnknownRelationError):
            instance.relation("T")


class TestEdits:
    def test_inserting(self, instance):
        updated = instance.inserting("S", ("z",))
        assert ("z",) in updated.relation("S")
        assert ("z",) not in instance.relation("S")  # immutability

    def test_deleting(self, instance):
        updated = instance.deleting("S", ("x",))
        assert ("x",) not in updated.relation("S")

    def test_replacing(self, instance):
        updated = instance.replacing("R", Relation({("c", "d")}))
        assert updated.relation("R").rows == {("c", "d")}

    def test_replacing_unknown(self, instance):
        with pytest.raises(UnknownRelationError):
            instance.replacing("T", Relation(()))


class TestEqualityAndHash:
    def test_equal(self, instance):
        clone = DatabaseInstance({"R": {("a", "b")}, "S": {("x",), ("y",)}})
        assert instance == clone
        assert hash(instance) == hash(clone)

    def test_usable_as_dict_key(self, instance):
        assert {instance: 1}[instance] == 1

    def test_pickled_hash_survives_hash_randomization(self, instance):
        """The cached hash must be recomputed on unpickle: it is built
        on per-process-randomized str hashes, and artifacts pickled by
        one process are looked up in sets/dicts by another (the shared
        cross-process artifact cache)."""
        import os
        import pickle
        import subprocess
        import sys

        code = (
            "import pickle, sys\n"
            "from repro.relational.instances import DatabaseInstance\n"
            "inst = DatabaseInstance("
            "{'R': {('a', 'b')}, 'S': {('x',), ('y',)}})\n"
            "sys.stdout.buffer.write(pickle.dumps(inst))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        blob = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            check=True,
        ).stdout
        foreign = pickle.loads(blob)
        assert foreign == instance
        assert hash(foreign) == hash(instance)
        assert foreign in {instance}


class TestSetOperations:
    def setup_method(self):
        self.a = DatabaseInstance({"R": {(1,)}, "S": {(2,)}})
        self.b = DatabaseInstance({"R": {(1,), (3,)}, "S": Relation((), 1)})

    def test_union(self):
        union = self.a | self.b
        assert union.relation("R").rows == {(1,), (3,)}
        assert union.relation("S").rows == {(2,)}

    def test_intersection(self):
        meet = self.a & self.b
        assert meet.relation("R").rows == {(1,)}
        assert meet.relation("S").is_empty()

    def test_difference(self):
        assert (self.b - self.a).relation("R").rows == {(3,)}

    def test_symmetric_difference(self):
        delta = self.a ^ self.b
        assert delta.relation("R").rows == {(3,)}
        assert delta.relation("S").rows == {(2,)}

    def test_delta_alias(self):
        assert self.a.delta(self.b) == self.a ^ self.b

    def test_delta_size(self):
        assert self.a.delta_size(self.b) == 2

    def test_delta_determines_solution(self):
        # s2 = s1 delta (s1 delta s2): the change-set pins the state down.
        assert self.a ^ (self.a ^ self.b) == self.b

    def test_issubset(self):
        sub = DatabaseInstance({"R": {(1,)}, "S": Relation((), 1)})
        assert sub <= self.a
        assert not (self.a <= sub)

    def test_strict_subset(self):
        sub = DatabaseInstance({"R": {(1,)}, "S": Relation((), 1)})
        assert sub < self.a
        assert not (self.a < self.a)

    def test_signature_mismatch(self):
        other = DatabaseInstance({"R": {(1,)}})
        with pytest.raises(UnknownRelationError):
            self.a | other

    def test_arity_mismatch(self):
        other = DatabaseInstance({"R": {(1, 2)}, "S": {(2,)}})
        with pytest.raises(ArityError):
            self.a | other


class TestDiagnostics:
    def test_total_rows(self):
        inst = DatabaseInstance({"R": {(1,), (2,)}, "S": {(3,)}})
        assert inst.total_rows() == 3

    def test_change_summary(self):
        before = DatabaseInstance({"R": {(1,)}, "S": {(2,)}})
        after = DatabaseInstance({"R": {(1,), (9,)}, "S": Relation((), 1)})
        summary = before.change_summary(after)
        assert summary["R"]["inserted"] == ((9,),)
        assert summary["S"]["deleted"] == ((2,),)
        assert "inserted" in summary["S"] and summary["S"]["inserted"] == ()

    def test_change_summary_no_change_omitted(self):
        inst = DatabaseInstance({"R": {(1,)}})
        assert inst.change_summary(inst) == {}

    def test_sorted_instances_deterministic(self):
        small = DatabaseInstance({"R": set()})
        big = DatabaseInstance({"R": {(1,), (2,)}})
        assert sorted_instances([big, small]) == (small, big)

    def test_items_sorted(self):
        inst = DatabaseInstance({"Z": set(), "A": set()})
        assert [name for name, _ in inst.items()] == ["A", "Z"]
