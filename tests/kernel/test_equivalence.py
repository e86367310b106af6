"""Bulk ≡ naive kernels on the paper's fixture universes.

The acceptance bar for the kernels: on E7 (Example 1.3.6's two-unary
universe) and E8 (Example 2.1.1's small ABCD chain), both kernels
must produce identical state spaces, posets, view kernels, image tables
and image posets, ``gamma#`` / ``gamma^Theta`` tables, and component
algebras.  Every artifact is
rebuilt from scratch under each mode (state spaces cache their posets,
so fixtures cannot be shared across modes).
"""

import pytest

from repro.core.components import ComponentAlgebra, are_strong_complements
from repro.core.strong import analyze_view, image_poset
from repro.kernel.config import use_kernel
from repro.relational.enumeration import enumerate_instances
from repro.workloads.scenarios import abcd_chain_small, two_unary_scenario


def poset_signature(poset):
    return (poset.elements, poset.leq_matrix())


def analysis_signature(analysis):
    return (
        analysis.is_monotone,
        analysis.preserves_bottom,
        analysis.admits_least_preimages,
        analysis.sharp_is_monotone,
        analysis.is_downward_stationary,
        analysis.view.image_table(analysis.space),
        poset_signature(image_poset(analysis.view, analysis.space)),
        analysis.sharp,
        analysis.theta,
    )


def two_unary_artifacts():
    scenario = two_unary_scenario()
    space = scenario.space
    views = (scenario.gamma1, scenario.gamma2, scenario.gamma3)
    analyses = {v.name: analysis_signature(analyze_view(v, space)) for v in views}
    kernels = {v.name: v.kernel(space).blocks for v in views}
    algebra = ComponentAlgebra.discover(space, views[:2])
    return (
        space.states,
        poset_signature(space.poset),
        analyses,
        kernels,
        {c.name: (c.key, c.complement.name) for c in algebra},
    )


def chain_artifacts():
    chain = abcd_chain_small()
    space = chain.state_space()
    views = chain.all_component_views()
    analyses = {
        v.name: analysis_signature(analyze_view(v, space)) for v in views
    }
    algebra = ComponentAlgebra.discover(space, views)
    return (
        space.states,
        poset_signature(space.poset),
        analyses,
        {c.name: (c.key, c.complement.name) for c in algebra},
        sorted(c.name for c in algebra.atoms()),
    )


@pytest.mark.parametrize(
    "build", [two_unary_artifacts, chain_artifacts], ids=["E7", "E8"]
)
def test_kernels_agree_on_fixture(build):
    with use_kernel("bulk"):
        bulk = build()
    with use_kernel("naive"):
        slow = build()
    assert bulk == slow


def test_enumeration_agrees_on_constrained_schema():
    from repro.relational.constraints import (
        FunctionalDependency,
        JoinDependency,
    )
    from repro.relational.schema import RelationSchema, Schema
    from repro.typealgebra.assignment import TypeAssignment

    # The S4 benchmark universe: R_SPJ with ⋈[SP, PJ] and S -> P.
    schema = Schema(
        name="bench",
        relations=(RelationSchema("R_SPJ", ("S", "P", "J")),),
        constraints=(
            JoinDependency("R_SPJ", (("S", "P"), ("P", "J"))),
            FunctionalDependency("R_SPJ", ("S",), ("P",)),
        ),
    )
    assignment = TypeAssignment.from_names(
        {"S": ("s1", "s2"), "P": ("p1", "p2"), "J": ("j1", "j2")}
    )
    results = {}
    for mode in ("bulk", "naive"):
        with use_kernel(mode):
            results[mode, True] = list(
                enumerate_instances(schema, assignment, prune=True)
            )
            results[mode, False] = list(
                enumerate_instances(schema, assignment, prune=False)
            )
    # Same states in the same order, across kernels and prune settings.
    assert results["bulk", True] == results["naive", True]
    assert results["bulk", False] == results["naive", False]
    assert set(results["bulk", True]) == set(results["bulk", False])


def test_strong_complement_verdicts_agree():
    verdicts = {}
    for mode in ("bulk", "naive"):
        with use_kernel(mode):
            chain = abcd_chain_small()
            space = chain.state_space()
            analyses = [
                analyze_view(v, space) for v in chain.all_component_views()
            ]
            strong = [a for a in analyses if a.is_strong]
            verdicts[mode] = [
                (a.view.name, b.view.name, are_strong_complements(a, b))
                for a in strong
                for b in strong
            ]
    assert verdicts["bulk"] == verdicts["naive"]
    assert any(flag for _, _, flag in verdicts["bulk"])


class TestJoinMeet:
    """StateSpace.join/meet: union/intersection fast path vs poset
    fallback, identical across kernels (satellite check)."""

    @pytest.mark.parametrize("mode", ["bulk", "naive"])
    def test_join_meet_match_poset_everywhere(self, mode):
        with use_kernel(mode):
            scenario = two_unary_scenario()
            space = scenario.space
            states = space.states[::3]
            for a in states:
                for b in states:
                    assert space.join(a, b) == space.poset.join(a, b)
                    assert space.meet(a, b) == space.poset.meet(a, b)

    def test_fast_path_and_fallback_agree_across_kernels(self):
        results = {}
        for mode in ("bulk", "naive"):
            with use_kernel(mode):
                chain = abcd_chain_small()
                space = chain.state_space()
                states = space.states[::5]
                results[mode] = [
                    (space.join(a, b), space.meet(a, b))
                    for a in states
                    for b in states
                ]
        assert results["bulk"] == results["naive"]
