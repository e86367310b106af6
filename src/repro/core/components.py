"""The component algebra: Boolean algebra of strongly complemented
strong views (paper §2.3, Theorem 2.3.3 and Lemma 2.3.2).

A **component** of a schema is a strong view possessing a strong
complement.  Key facts implemented/verified here:

* two strong views are *strong complements* iff the product of their
  endomorphisms, ``s -> (gamma1^Theta(s), gamma2^Theta(s))``, is a
  ⊥-poset isomorphism onto the product of their fixpoint posets
  (Lemma 2.3.2(b)); strong complements are unique (Theorem 2.3.3(b));
* the ordering of strong views agrees with the pointwise ordering of
  their endomorphisms (Theorem 2.3.3(a));
* the strongly complemented strong views form a Boolean algebra
  (:class:`ComponentAlgebra` builds and *verifies* it via
  :class:`~repro.algebra.boolean_algebra.FiniteBooleanAlgebra`).

Views inducing the same endomorphism of the base state space are
isomorphic; components are therefore identified by their
``theta_key``, and each :class:`Component` carries one representative
view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import NotAComplementError, ReproError
from repro.algebra.boolean_algebra import FiniteBooleanAlgebra
from repro.relational.enumeration import StateSpace
from repro.relational.instances import DatabaseInstance
from repro.core.strong import StrongViewAnalysis, analyze_view
from repro.views.view import View, identity_view, zero_view


def theta_leq(left: StrongViewAnalysis, right: StrongViewAnalysis) -> bool:
    """Pointwise order of endomorphisms: ``theta1(s) <= theta2(s)`` always.

    By Theorem 2.3.3(a) this coincides with the view ordering
    ``Gamma1 <= Gamma2`` for strong views (cross-validated in tests
    against kernel refinement).

    Since every ``theta`` value is itself a state, the pointwise subset
    tests are single bit probes of the state poset's order matrix.
    """
    if left.theta is None or right.theta is None:
        raise ReproError(
            "theta_leq needs analyses carrying endomorphism tables "
            "(both views must admit least preimages)"
        )
    below = left.space.poset.leq_matrix()
    return all(
        (below[hi] >> lo) & 1
        for lo, hi in zip(left._theta_indices(), right._theta_indices())
    )


def are_strong_complements(
    left: StrongViewAnalysis, right: StrongViewAnalysis
) -> bool:
    """Lemma 2.3.2(b): is ``theta1 x theta2`` a ⊥-poset isomorphism onto
    the product of the two fixpoint posets?

    Decided without materialising the product poset:

    1. *cardinality*: a bijection requires
       ``|fix(theta1)| * |fix(theta2)| == |LDB|`` -- this kills almost
       every non-complement pair instantly;
    2. *injectivity*: the pairs ``(theta1(s), theta2(s))`` are distinct
       (with (1), they then exhaust the product set);
    3. *order*: ``x <= y  iff  theta1(x) <= theta1(y) and
       theta2(x) <= theta2(y)``.  Per state ``y``, the right-hand side
       is a mask -- the union of ``{x : theta1(x) = f}`` selectors over
       the fixpoints ``f <= theta1(y)``, intersected with the theta2
       analogue -- memoized per distinct theta value, so the whole check
       is one mask comparison per state instead of ``n^2`` bit probes.
    """
    if not (left.is_strong and right.is_strong):
        return False
    if left.theta is None or right.theta is None:
        raise ReproError(
            "strong analyses must carry endomorphism tables"
        )
    space = left.space
    n = len(space.states)
    if len(left.fixpoints()) * len(right.fixpoints()) != n:
        return False
    if len(left.fixpoints()) == n or len(right.fixpoints()) == n:
        # One endomorphism is the identity, so (by the cardinality
        # check) the other is constant: the pairs are distinct because
        # the identity leg already is, and the order condition collapses
        # to ``x <= y iff x <= y`` (the constant leg never constrains;
        # the identity leg reflects exactly).
        return True
    left_index = left._theta_indices()
    right_index = right._theta_indices()
    if len(set(zip(left_index, right_index))) != n:
        return False
    below = space.poset.leq_matrix()

    left_sel: Dict[int, int] = {}
    right_sel: Dict[int, int] = {}
    for x in range(n):
        f = left_index[x]
        left_sel[f] = left_sel.get(f, 0) | (1 << x)
        f = right_index[x]
        right_sel[f] = right_sel.get(f, 0) | (1 << x)

    def pull_table(sel: Dict[int, int]) -> Dict[int, int]:
        # {x : theta(x) <= f} per fixpoint f.  Restricting each down-set
        # to the fixpoint support keeps the bit walk O(|fixpoints|)
        # instead of O(|LDB|) per entry.
        support = 0
        for f in sel:
            support |= 1 << f
        table: Dict[int, int] = {}
        for fy in sel:
            mask = 0
            probe = below[fy] & support
            while probe:
                f = (probe & -probe).bit_length() - 1
                probe &= probe - 1
                mask |= sel[f]
            table[fy] = mask
        return table

    left_pulled = pull_table(left_sel)
    right_pulled = pull_table(right_sel)
    for y in range(n):
        componentwise = (
            left_pulled[left_index[y]] & right_pulled[right_index[y]]
        )
        if componentwise != below[y]:
            return False
    return True


@dataclass
class Component:
    """A strongly complemented strong view, as an algebra element."""

    name: str
    view: View
    analysis: StrongViewAnalysis
    key: Tuple[int, ...]
    #: Set by :class:`ComponentAlgebra` once complements are resolved.
    complement: Optional["Component"] = None

    def __repr__(self) -> str:
        return f"Component({self.name!r})"

    @property
    def theta(self) -> Dict[DatabaseInstance, DatabaseInstance]:
        """The endomorphism table ``gamma^Theta``."""
        if self.analysis.theta is None:
            raise ReproError(
                f"component {self.name!r} has no endomorphism table"
            )
        return self.analysis.theta

    @property
    def sharp(self) -> Dict[DatabaseInstance, DatabaseInstance]:
        """The least-right-inverse table ``gamma#``."""
        if self.analysis.sharp is None:
            raise ReproError(
                f"component {self.name!r} has no least-right-inverse table"
            )
        return self.analysis.sharp

    def fixpoints(self) -> Tuple[DatabaseInstance, ...]:
        """The least preimages (the component's "part" of each state)."""
        return self.analysis.fixpoints()


class ComponentAlgebra:
    """The Boolean algebra of components of a schema over a state space.

    Build with :meth:`discover`, passing candidate views; the identity
    and zero views are always included (they are the top and bottom).
    Construction *verifies* the Boolean algebra axioms -- Theorem 2.3.3's
    claim is executed, not assumed -- and resolves every element's unique
    complement.

    Note: the theorem guarantees the set of *all* strongly complemented
    strong views forms a Boolean algebra; a partial candidate set may
    fail closure under meet/join, in which case construction raises
    :class:`~repro.errors.NotABooleanAlgebraError` naming the gap.
    """

    def __init__(
        self,
        space: StateSpace,
        components: Tuple[Component, ...],
        algebra: FiniteBooleanAlgebra,
    ):
        self.space = space
        self._components = components
        self._by_key: Dict[Tuple[int, ...], Component] = {
            c.key: c for c in components
        }
        self._by_name: Dict[str, Component] = {c.name: c for c in components}
        self.algebra = algebra

    # -- construction -------------------------------------------------------------

    @classmethod
    def discover(
        cls,
        space: StateSpace,
        candidates: Iterable[View],
        include_bounds: bool = True,
    ) -> "ComponentAlgebra":
        """Find the components among *candidates* and build the algebra.

        Steps: analyse each distinct candidate (by fingerprint) once;
        keep the strong ones; dedupe by endomorphism (isomorphic views
        collapse); pair up strong complements by the Lemma 2.3.2(b)
        criterion; keep the complemented ones; verify the Boolean
        algebra axioms over the pointwise endomorphism order.
        """
        analyses: List[StrongViewAnalysis] = []
        views: List[View] = list(candidates)
        if include_bounds:
            views.append(identity_view(space.schema))
            views.append(zero_view(space.schema))
        seen: Set[str] = set()
        for view in views:
            if view.fingerprint() in seen:
                continue
            seen.add(view.fingerprint())
            analysis = analyze_view(view, space)
            if analysis.is_strong:
                analyses.append(analysis)

        # Dedupe isomorphic views (same endomorphism).
        by_key: Dict[Tuple[int, ...], StrongViewAnalysis] = {}
        for analysis in analyses:
            by_key.setdefault(analysis.theta_key(), analysis)

        # Keep the strongly complemented ones.
        keys = list(by_key)
        complemented: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for key in keys:
            if key in complemented:
                continue
            for other in keys:
                if are_strong_complements(by_key[key], by_key[other]):
                    complemented[key] = other
                    complemented[other] = key
                    break

        components = tuple(
            Component(
                name=by_key[key].view.name,
                view=by_key[key].view,
                analysis=by_key[key],
                key=key,
            )
            for key in keys
            if key in complemented
        )
        if not components:
            raise NotAComplementError(
                "no strongly complemented strong views among the candidates"
            )

        component_of = {c.key: c for c in components}
        algebra = FiniteBooleanAlgebra(
            [c.key for c in components],
            lambda a, b: theta_leq(
                component_of[a].analysis, component_of[b].analysis
            ),
        )
        instance = cls(space, components, algebra)
        # Resolve complements: the algebra complement and the strong
        # complement coincide (Lemma 2.3.2); link them on the objects.
        for component in components:
            complement_key = algebra.complement(component.key)
            component.complement = instance._by_key[complement_key]
        return instance

    # -- container protocol ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[Component]:
        return iter(self._components)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def components(self) -> Tuple[Component, ...]:
        """All elements."""
        return self._components

    def named(self, name: str) -> Component:
        """Look up an element by view name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ReproError(
                f"no component named {name!r}; have {sorted(self._by_name)}"
            ) from None

    def component_of_view(self, view: View) -> Component:
        """The element a (strong) view corresponds to, by endomorphism."""
        analysis = analyze_view(view, self.space).require_strong()
        key = analysis.theta_key()
        try:
            return self._by_key[key]
        except KeyError:
            raise NotAComplementError(
                f"view {view.name!r} is strong but not in this algebra "
                "(it may lack a strong complement among the candidates)"
            ) from None

    # -- Boolean operations -------------------------------------------------------------

    @property
    def top(self) -> Component:
        """The identity view ``1_D``."""
        return self._by_key[self.algebra.top]

    @property
    def bottom(self) -> Component:
        """The zero view ``0_D``."""
        return self._by_key[self.algebra.bottom]

    def leq(self, left: Component, right: Component) -> bool:
        """The component order (endomorphisms pointwise)."""
        return self.algebra.leq(left.key, right.key)

    def meet(self, left: Component, right: Component) -> Component:
        """Greatest lower bound."""
        return self._by_key[self.algebra.meet(left.key, right.key)]

    def join(self, left: Component, right: Component) -> Component:
        """Least upper bound."""
        return self._by_key[self.algebra.join(left.key, right.key)]

    def complement_of(self, component: Component) -> Component:
        """The unique strong complement (Theorem 2.3.3(b))."""
        return self._by_key[self.algebra.complement(component.key)]

    def atoms(self) -> Tuple[Component, ...]:
        """The atomic components."""
        return tuple(self._by_key[k] for k in self.algebra.atoms())

    def is_boolean(self) -> bool:
        """The algebra was verified at construction; re-verify the
        powerset-of-atoms isomorphism as a sanity check."""
        return self.algebra.is_isomorphic_to_powerset_of_atoms()

    def __repr__(self) -> str:
        return (
            f"ComponentAlgebra({len(self)} components, "
            f"{len(self.atoms())} atoms)"
        )
