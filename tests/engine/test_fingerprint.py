"""Unit tests for :mod:`repro.engine.fingerprint`."""

import pickle

import pytest

from repro.engine.engine import Engine
from repro.engine.fingerprint import (
    FingerprintError,
    canonical_token,
    contains_transient,
    dataclass_token,
    is_content_addressed,
    stable_fingerprint,
    transient_token,
)
from repro.engine.backends import LocalDirBackend
from repro.engine.store import ArtifactStore
from repro.relational.constraints import FunctionalDependency
from repro.relational.instances import DatabaseInstance
from repro.relational.queries import RelationRef, Select
from repro.relational.schema import RelationSchema, Schema
from repro.resilience.faults import inject
from repro.typealgebra.assignment import TypeAssignment
from repro.views.mappings import FunctionMapping, QueryMapping
from repro.views.view import View


def unary_schema(name="D"):
    return Schema(
        name=name,
        relations=(RelationSchema("R", ("A",)), RelationSchema("S", ("B",))),
    )


class TestCanonicalToken:
    def test_primitives_pass_through(self):
        for value in (None, True, 3, 2.5, "x", b"y"):
            assert canonical_token(value) == value

    def test_containers_recurse_deterministically(self):
        assert canonical_token((1, 2)) == ("seq", 1, 2)
        assert canonical_token([1, 2]) == ("seq", 1, 2)
        assert canonical_token({2, 1}) == canonical_token({1, 2})
        assert canonical_token({"b": 1, "a": 2}) == canonical_token(
            {"a": 2, "b": 1}
        )

    def test_fingerprint_protocol_delegation(self):
        schema = unary_schema()
        assert canonical_token(schema) == ("#", schema.fingerprint())

    def test_dataclass_token_uses_compared_fields(self):
        fd = FunctionalDependency("R", ("A",), ("B",))
        token = dataclass_token(fd)
        assert token[0] == "FunctionalDependency"
        assert ("relation", "R") in token

    def test_opaque_object_raises(self):
        class Opaque:
            __slots__ = ()

        with pytest.raises(FingerprintError):
            canonical_token(Opaque())

    def test_callables_tokenize_as_transient(self):
        def f():
            pass

        token = canonical_token(f)
        assert token[0] == "callable"
        assert contains_transient((f,))
        assert not contains_transient((1, "x", (2.5,)))


class TestStableFingerprint:
    def test_equal_content_equal_fingerprint(self):
        assert unary_schema().fingerprint() == unary_schema().fingerprint()

    def test_different_content_different_fingerprint(self):
        assert (
            unary_schema("D1").fingerprint() != unary_schema("D2").fingerprint()
        )

    def test_assignment_fingerprint_ignores_dict_order(self):
        a1 = TypeAssignment.from_names({"A": ("x",), "B": ("y",)})
        a2 = TypeAssignment.from_names({"B": ("y",), "A": ("x",)})
        assert a1.fingerprint() == a2.fingerprint()

    def test_parts_are_positional(self):
        assert stable_fingerprint("a", "b") != stable_fingerprint("b", "a")


class TestTransientTokens:
    def test_memoized_per_object(self):
        class Box:
            pass

        box = Box()
        assert transient_token(box) == transient_token(box)
        assert transient_token(box) != transient_token(Box())

    def test_content_addressed_default_true(self):
        assert is_content_addressed(unary_schema())
        assert is_content_addressed(object())


class TestViewContentAddressing:
    """``View.is_content_addressed`` walks the mapping's query trees
    once per view object; the engine's hit paths ask it every time."""

    @pytest.fixture
    def universe(self, tmp_path):
        schema = unary_schema()
        assignment = TypeAssignment.from_names(
            {"A": ("a1", "a2"), "B": ("a1", "a2")}
        )
        engine = Engine(
            store=ArtifactStore(backend=LocalDirBackend(str(tmp_path)))
        )
        with inject(None):
            yield schema, assignment, engine

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []

        def counting(obj):
            calls.append(obj)
            return contains_transient(obj)

        monkeypatch.setattr(
            "repro.views.mappings.contains_transient", counting
        )
        return calls

    @staticmethod
    def query_view(schema, name, relation):
        return View(
            name,
            schema,
            None,
            QueryMapping({relation: RelationRef.of(schema, relation)}),
        )

    def test_engine_hits_walk_once_per_view(self, universe, walks):
        schema, assignment, engine = universe
        gamma_r = self.query_view(schema, "Γr", "R")
        gamma_s = self.query_view(schema, "Γs", "S")
        space = engine.space(schema, assignment)
        algebra = engine.algebra(space, (gamma_r, gamma_s))
        for _ in range(10):
            procedure = engine.procedure(gamma_r, algebra)
            engine.analysis(gamma_r, space)
            engine.analysis(gamma_s, space)
        assert procedure.complement.view is gamma_s
        views = {id(v): v for v in (gamma_r, gamma_s)}
        views.update((id(c.view), c.view) for c in algebra)
        walked = [
            v for v in views.values() if isinstance(v.mapping, QueryMapping)
        ]
        assert len(walked) == 2
        assert len(walks) == len(walked)

    def test_unpickled_view_walks_again(self, walks):
        view = self.query_view(unary_schema(), "Γr", "R")
        before = pickle.dumps(view)
        assert view.is_content_addressed
        assert view.is_content_addressed
        assert len(walks) == 1
        assert pickle.dumps(view) == before
        clone = pickle.loads(before)
        assert clone.is_content_addressed
        assert len(walks) == 2

    def test_transient_views_still_persist_nothing(self, universe, tmp_path):
        schema, assignment, engine = universe
        copy_rows = FunctionMapping(
            lambda state, _: DatabaseInstance({"R": state.relation("R")}),
            {"R": 1},
        )
        some_rows = Select(
            RelationRef.of(schema, "R"), lambda a: a != "a1", ("A",)
        )
        copy_r = View("Γf", schema, None, copy_rows)
        some_r = View("Γσ", schema, None, QueryMapping({"R": some_rows}))
        gamma_s = self.query_view(schema, "Γs", "S")
        space = engine.space(schema, assignment)
        for view in (copy_r, some_r):
            for _ in range(2):
                assert not view.is_content_addressed
                engine.analysis(view, space)
        algebra = engine.algebra(space, (copy_r, gamma_s))
        engine.procedure(copy_r, algebra)
        persisted = sorted(
            path.name.split("-")[0] for path in tmp_path.glob("*.pkl")
        )
        assert persisted == ["space"]
