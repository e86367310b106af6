"""Property tests: pruned enumeration on random small schemas.

Over randomly drawn schemas (1-2 relations, domains of size 1-2,
optional FD/JD constraints), ``enumerate_instances(prune=True)`` ≡
``prune=False`` -- pruning is an optimisation, never a semantic
change.  Bulk ≡ naive over the same strategy is
``tests/kernel/test_bulk_equivalence.py``'s first invariant.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.constraints import (
    FunctionalDependency,
    InclusionDependency,
    JoinDependency,
)
from repro.relational.enumeration import enumerate_instances
from repro.relational.schema import RelationSchema, Schema
from repro.typealgebra.assignment import TypeAssignment


@st.composite
def universes(draw):
    """A (schema, assignment) pair with a tiny typed tuple universe."""
    r_arity = draw(st.integers(1, 2))
    attrs = ("A", "B")[:r_arity]
    relations = [RelationSchema("R", attrs)]
    constraints = []
    if r_arity == 2:
        if draw(st.booleans()):
            lhs, rhs = draw(st.sampled_from([("A", "B"), ("B", "A")]))
            constraints.append(
                FunctionalDependency("R", (lhs,), (rhs,))
            )
        if draw(st.booleans()):
            constraints.append(JoinDependency("R", (("A",), ("B",))))
    if draw(st.booleans()):
        relations.append(RelationSchema("S", ("A",)))
        if draw(st.booleans()):
            # Cross-relation: stays a *global* constraint under pruning.
            constraints.append(
                InclusionDependency("S", ("A",), "R", ("A",))
            )
    schema = Schema(
        name="H",
        relations=tuple(relations),
        constraints=tuple(constraints),
    )
    assignment = TypeAssignment.from_names(
        {
            "A": tuple(f"a{i}" for i in range(draw(st.integers(1, 2)))),
            "B": tuple(f"b{i}" for i in range(draw(st.integers(1, 2)))),
        }
    )
    return schema, assignment


@settings(max_examples=60, deadline=None)
@given(universes())
def test_prune_is_semantics_preserving(universe):
    schema, assignment = universe
    pruned = list(enumerate_instances(schema, assignment, prune=True))
    naive = list(enumerate_instances(schema, assignment, prune=False))
    assert set(pruned) == set(naive)

