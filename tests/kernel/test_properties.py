"""Property tests: kernel equivalence on random small schemas.

Two invariants, each over randomly drawn schemas (1-2 relations,
domains of size 1-2, optional FD/JD constraints):

* ``enumerate_instances(prune=True)`` ≡ ``prune=False`` -- pruning is
  an optimisation, never a semantic change;
* the bulk kernel ≡ the naive kernel -- same states in the same
  order, and the same poset order matrix.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.config import use_kernel
from repro.relational.constraints import (
    FunctionalDependency,
    InclusionDependency,
    JoinDependency,
)
from repro.relational.enumeration import StateSpace, enumerate_instances
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


@settings(max_examples=60, deadline=None)
@given(universes())
def test_bulk_and_naive_kernels_agree(universe):
    schema, assignment = universe
    per_mode = {}
    for mode in ("bulk", "naive"):
        with use_kernel(mode):
            states = {
                prune: list(
                    enumerate_instances(schema, assignment, prune=prune)
                )
                for prune in (True, False)
            }
            space = StateSpace.enumerate(schema, assignment)
            per_mode[mode] = (
                states,
                space.states,
                space.poset.leq_matrix(),
            )
    assert per_mode["bulk"] == per_mode["naive"]
