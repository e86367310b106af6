"""Hypothesis: bulk ≡ naive on randomly drawn universes.

Four invariants, each quantified over random small schemas (or random
update requests on the paper's small ABCD chain):

* enumeration -- same states in the same order, same ⊥-poset;
* strong-view analysis -- identical verdicts, image table and image
  poset, ``gamma#`` and ``gamma^Theta`` tables for a random projection
  view;
* component discovery -- identical component algebras over a random
  two-unary universe;
* translated updates -- field-identical :class:`UpdateOutcome`\\ s for
  random update requests served end-to-end through a session.
"""

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.components import ComponentAlgebra
from repro.core.strong import analyze_view, image_poset
from repro.decomposition.projections import projection_view
from repro.engine.engine import Engine, UpdateOutcome
from repro.kernel.config import use_kernel
from repro.relational.constraints import (
    FunctionalDependency,
    InclusionDependency,
    JoinDependency,
)
from repro.relational.enumeration import StateSpace, enumerate_instances
from repro.relational.queries import Project, RelationRef
from repro.relational.schema import RelationSchema, Schema
from repro.typealgebra.assignment import TypeAssignment
from repro.views.mappings import QueryMapping
from repro.views.view import View
from repro.workloads.scenarios import abcd_chain_small

KERNELS = ("bulk", "naive")


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
            constraints.append(FunctionalDependency("R", (lhs,), (rhs,)))
        if draw(st.booleans()):
            constraints.append(JoinDependency("R", (("A",), ("B",))))
    if draw(st.booleans()):
        relations.append(RelationSchema("S", ("A",)))
        if draw(st.booleans()):
            constraints.append(InclusionDependency("S", ("A",), "R", ("A",)))
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


def analysis_signature(analysis):
    image = image_poset(analysis.view, analysis.space)
    return (
        analysis.is_monotone,
        analysis.preserves_bottom,
        analysis.admits_least_preimages,
        analysis.sharp_is_monotone,
        analysis.is_downward_stationary,
        analysis.view.image_table(analysis.space),
        (image.elements, image.leq_matrix()),
        analysis.sharp,
        analysis.theta,
    )


@settings(max_examples=60, deadline=None)
@given(universes())
def test_enumeration_and_poset_agree(universe):
    schema, assignment = universe
    per_mode = {}
    for mode in KERNELS:
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


@settings(max_examples=30, deadline=None)
@given(universes(), st.sampled_from(["A", "B"]))
def test_strong_view_analysis_agrees(universe, attr):
    schema, assignment = universe
    rel = schema.relation("R")
    if attr not in rel.attributes:
        attr = rel.attributes[0]
    per_mode = {}
    for mode in KERNELS:
        with use_kernel(mode):
            space = StateSpace.enumerate(schema, assignment)
            base = RelationRef("R", rel.attributes)
            view = View(
                "Γ_H",
                schema,
                None,
                QueryMapping({"V": Project(base, (attr,))}),
            )
            analysis = analyze_view(view, space)
            per_mode[mode] = analysis_signature(analysis)
    assert per_mode["bulk"] == per_mode["naive"]


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(1, 2),
    st.booleans(),
)
def test_component_discovery_agrees(size_a, size_b, constrain):
    """Random two-unary universe: the discovered component algebra is
    kernel-independent (names, keys, and complement pairing)."""
    relations = (RelationSchema("R", ("A",)), RelationSchema("S", ("B",)))
    constraints = (
        (InclusionDependency("S", ("B",), "R", ("A",)),)
        if constrain and size_a == size_b
        else ()
    )
    schema = Schema(name="H2", relations=relations, constraints=constraints)
    assignment = TypeAssignment.from_names(
        {
            "A": tuple(f"a{i}" for i in range(size_a)),
            "B": tuple(f"b{i}" for i in range(size_b)),
        }
    )
    per_mode = {}
    for mode in KERNELS:
        with use_kernel(mode):
            space = StateSpace.enumerate(schema, assignment)
            views = [
                View(
                    "Γ_R",
                    schema,
                    None,
                    QueryMapping({"R": RelationRef("R", ("A",))}),
                ),
                View(
                    "Γ_S",
                    schema,
                    None,
                    QueryMapping({"S": RelationRef("S", ("B",))}),
                ),
            ]
            algebra = ComponentAlgebra.discover(space, views)
            per_mode[mode] = {
                c.name: (c.key, c.complement.name) for c in algebra
            }
    assert per_mode["bulk"] == per_mode["naive"]


def outcome_signature(outcome: UpdateOutcome):
    """Every field except the wall-clock ``elapsed``."""
    return tuple(
        getattr(outcome, f.name)
        for f in fields(outcome)
        if f.name != "elapsed"
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_translated_updates_agree(state_pick, target_pick):
    """Random update requests on the small ABCD chain produce
    field-identical ``UpdateOutcome``\\ s under both kernels --
    including rejections, reasons, and admissibility evidence."""
    per_mode = {}
    for mode in KERNELS:
        with use_kernel(mode):
            chain = abcd_chain_small()
            space = chain.state_space()
            engine = Engine()
            session = engine.session(
                chain.schema, chain.assignment, space
            )
            view = projection_view(chain, ("A", "B", "D"))
            session.register_view(view)
            session.build_component_algebra(chain.all_component_views())
            states = space.states
            state = states[state_pick % len(states)]
            images = sorted(
                {view.apply(s, chain.assignment) for s in states},
                key=repr,
            )
            target = images[target_pick % len(images)]
            outcome = session.update(view.name, state, target)
            per_mode[mode] = outcome_signature(outcome)
    assert per_mode["bulk"] == per_mode["naive"]
