"""Unit tests for :mod:`repro.core.components` (the component algebra)."""

import pytest

from repro.errors import NotAComplementError, ReproError
from repro.core import components
from repro.core.components import (
    ComponentAlgebra,
    are_strong_complements,
    theta_leq,
)
from repro.core.strong import analyze_view
from repro.views.morphisms import defines
from repro.views.view import identity_view, zero_view


class TestStrongComplements:
    def test_gamma1_gamma2(self, two_unary):
        a1 = analyze_view(two_unary.gamma1, two_unary.space)
        a2 = analyze_view(two_unary.gamma2, two_unary.space)
        assert are_strong_complements(a1, a2)
        assert are_strong_complements(a2, a1)

    def test_non_strong_never_complements(self, two_unary):
        a1 = analyze_view(two_unary.gamma1, two_unary.space)
        a3 = analyze_view(two_unary.gamma3, two_unary.space)
        assert not are_strong_complements(a1, a3)

    def test_not_self_complement(self, two_unary):
        a1 = analyze_view(two_unary.gamma1, two_unary.space)
        assert not are_strong_complements(a1, a1)

    def test_identity_zero_pair(self, two_unary):
        top = analyze_view(identity_view(two_unary.schema), two_unary.space)
        bottom = analyze_view(zero_view(two_unary.schema), two_unary.space)
        assert are_strong_complements(top, bottom)

    def test_chain_edge_complements(self, small_chain, small_space):
        ab = analyze_view(small_chain.component_view([0]), small_space)
        bcd = analyze_view(small_chain.component_view([1, 2]), small_space)
        cd = analyze_view(small_chain.component_view([2]), small_space)
        assert are_strong_complements(ab, bcd)
        assert not are_strong_complements(ab, cd)


class TestThetaOrder:
    def test_matches_view_order(self, small_chain, small_space):
        """Theorem 2.3.3(a): the endomorphism order agrees with the
        definability order for strong views."""
        views = [
            small_chain.component_view([0]),
            small_chain.component_view([0, 1]),
            small_chain.component_view([2]),
            small_chain.component_view([0, 1, 2]),
        ]
        analyses = {v.name: analyze_view(v, small_space) for v in views}
        for left in views:
            for right in views:
                by_theta = theta_leq(
                    analyses[left.name], analyses[right.name]
                )
                by_kernel = defines(right, left, small_space)
                assert by_theta == by_kernel, (left.name, right.name)


class TestDiscovery:
    def test_two_unary_algebra(self, two_unary):
        algebra = ComponentAlgebra.discover(
            two_unary.space,
            [two_unary.gamma1, two_unary.gamma2, two_unary.gamma3],
        )
        # Gamma3 is excluded (not strong): {0, Γ1, Γ2, 1}.
        assert len(algebra) == 4
        assert algebra.is_boolean()
        g1 = algebra.named("Γ1")
        assert algebra.complement_of(g1).name == "Γ2"
        assert g1.complement.name == "Γ2"

    def test_chain_algebra_shape(self, small_algebra):
        assert len(small_algebra) == 8
        assert len(small_algebra.atoms()) == 3
        assert small_algebra.is_boolean()

    def test_complement_involution(self, small_algebra):
        for component in small_algebra:
            assert (
                small_algebra.complement_of(
                    small_algebra.complement_of(component)
                )
                is component
            )

    def test_meet_join(self, small_algebra):
        ab = small_algebra.named("Γ°AB")
        bc = small_algebra.named("Γ°BC")
        assert small_algebra.join(ab, bc).name == "Γ°ABC"
        assert small_algebra.meet(ab, bc) is small_algebra.bottom

    def test_de_morgan_in_components(self, small_algebra):
        ab = small_algebra.named("Γ°AB")
        cd = small_algebra.named("Γ°CD")
        left = small_algebra.complement_of(small_algebra.join(ab, cd))
        right = small_algebra.meet(
            small_algebra.complement_of(ab), small_algebra.complement_of(cd)
        )
        assert left is right

    def test_top_bottom(self, small_algebra, small_space):
        assert small_algebra.leq(small_algebra.bottom, small_algebra.top)
        # Top's theta is the identity.
        top_theta = small_algebra.top.theta
        assert all(top_theta[s] == s for s in small_space.states)

    def test_named_unknown(self, small_algebra):
        with pytest.raises(ReproError):
            small_algebra.named("nope")

    def test_component_of_view(self, small_algebra, small_chain):
        clone = small_chain.component_view([0], name="clone")
        component = small_algebra.component_of_view(clone)
        assert component.name == "Γ°AB"

    def test_component_of_non_member(self, two_unary, small_algebra):
        with pytest.raises(ReproError):
            small_algebra.component_of_view(two_unary.gamma1)

    def test_no_components_raises(self, two_unary):
        with pytest.raises(NotAComplementError):
            ComponentAlgebra.discover(
                two_unary.space, [two_unary.gamma3], include_bounds=False
            )

    def test_dedupes_isomorphic_candidates(self, small_chain, small_space):
        views = list(small_chain.all_component_views())
        views.append(small_chain.component_view([0], name="dup"))
        algebra = ComponentAlgebra.discover(small_space, views)
        assert len(algebra) == 8  # the duplicate collapsed

    def test_analyses_each_distinct_candidate_once(
        self, small_chain, small_space, monkeypatch
    ):
        views = list(small_chain.all_component_views())
        # Repeats: the same objects again, and an equal view built anew.
        repeated = views + views[:3] + [small_chain.component_view([1, 2])]
        bounds = [
            identity_view(small_space.schema),
            zero_view(small_space.schema),
        ]
        distinct = {view.fingerprint() for view in repeated + bounds}
        expected = ComponentAlgebra.discover(small_space, views)

        analysed = []

        def counting(view, space):
            analysed.append(view.fingerprint())
            return analyze_view(view, space)

        monkeypatch.setattr(components, "analyze_view", counting)
        algebra = ComponentAlgebra.discover(small_space, repeated)
        assert sorted(analysed) == sorted(distinct)

        def members(alg):
            return [(c.name, c.key, c.complement.name) for c in alg]

        assert members(algebra) == members(expected)

    def test_fixpoints_are_component_parts(self, small_algebra, small_chain):
        ab = small_algebra.named("Γ°AB")
        for state in ab.fixpoints():
            edges = small_chain.edges_of(state)
            assert edges[1] == frozenset() and edges[2] == frozenset()
