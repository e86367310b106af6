"""Strong views: the ⊥-poset analysis of a view mapping (paper §2.3).

A view ``Gamma = (V, gamma)`` is *strong* when, for each type
assignment, ``gamma' : LDB(D, mu) -> LDB(V, mu)`` is a strong morphism
of ⊥-posets: monotone, bottom-preserving, surjective (onto its image,
which *is* ``LDB(V, mu)`` by the standing assumption), admitting least
preimages with a monotone least right inverse ``gamma#``, and downward
stationary.

:func:`analyze_view` performs the analysis over one state space and
returns a :class:`StrongViewAnalysis` carrying the verdict, the failed
conditions, and -- when the view is strong -- the tables for
``gamma#`` and the endomorphism ``gamma^Theta = gamma# . gamma``
(Lemma 2.3.1), which drive the constructive update translator of
Theorem 3.1.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import NotStrongError, ReproError
from repro.algebra.morphisms import PosetMorphism
from repro.algebra.poset import FinitePoset
from repro.kernel.config import bulk_enabled
from repro.relational.enumeration import StateSpace
from repro.relational.instances import DatabaseInstance
from repro.views.view import View


@dataclass
class StrongViewAnalysis:
    """One view analysed over one state space: the five Definition
    §2.3 verdicts and, when least preimages exist, the ``gamma#`` and
    ``gamma^Theta`` tables.  ``gamma'`` is ``view.image_table(space)``
    and is not kept, so a pickled analysis holds no poset."""

    view: View
    space: StateSpace
    is_monotone: bool
    preserves_bottom: bool
    admits_least_preimages: bool
    sharp_is_monotone: bool
    is_downward_stationary: bool
    #: ``gamma# : view state -> least preimage`` (None unless strong-ish).
    sharp: Optional[Dict[DatabaseInstance, DatabaseInstance]] = None
    #: ``gamma^Theta : base state -> base state`` (None unless strong-ish).
    theta: Optional[Dict[DatabaseInstance, DatabaseInstance]] = None
    #: Memoized :meth:`theta_key` (the bulk kernel seeds it directly).
    _theta_key_cache: Optional[Tuple[int, ...]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def is_strong(self) -> bool:
        """The full Definition §2.3 conjunction."""
        return (
            self.is_monotone
            and self.preserves_bottom
            and self.admits_least_preimages
            and self.sharp_is_monotone
            and self.is_downward_stationary
        )

    def failures(self) -> Tuple[str, ...]:
        """Names of the failed conditions."""
        failed = []
        if not self.is_monotone:
            failed.append("monotone")
        if not self.preserves_bottom:
            failed.append("preserves-bottom")
        if not self.admits_least_preimages:
            failed.append("least-preimages")
        if not self.sharp_is_monotone:
            failed.append("sharp-monotone")
        if not self.is_downward_stationary:
            failed.append("downward-stationary")
        return tuple(failed)

    def require_strong(self) -> "StrongViewAnalysis":
        """Return self, or raise :class:`~repro.errors.NotStrongError`."""
        if not self.is_strong:
            raise NotStrongError(
                f"view {self.view.name!r} is not strong "
                f"(failed: {', '.join(self.failures())})",
                analysis=self,
            )
        return self

    # -- derived structure (strong views only) --------------------------------

    def theta_morphism(self) -> PosetMorphism:
        """``gamma^Theta`` as a poset endomorphism of the state space."""
        self.require_strong()
        if self.theta is None:
            raise NotStrongError(
                f"view {self.view.name!r} passed the strongness check"
                " but carries no endomorphism table: least preimages"
                " were not admitted (Lemma 2.3.1 requires gamma^Theta"
                " = lp . gamma to be total)",
                analysis=self,
            )
        return PosetMorphism(self.space.poset, self.space.poset, self.theta)

    def fixpoints(self) -> Tuple[DatabaseInstance, ...]:
        """``lp(gamma')``: the least preimages = fixpoints of theta."""
        self.require_strong()
        states = self.space.states
        return tuple(
            states[i]
            for i, k in enumerate(self._theta_indices())
            if k == i
        )

    def _theta_indices(self) -> Tuple[int, ...]:
        """The endomorphism as state indices (memoized; no strongness
        requirement, so the pointwise order is computable on any
        analysis that carries a theta table)."""
        if self._theta_key_cache is None:
            if self.theta is None:
                raise ReproError(
                    f"view {self.view.name!r} has no endomorphism table "
                    "(least preimages not admitted)"
                )
            index = self.space.index
            self._theta_key_cache = tuple(
                index(self.theta[s]) for s in self.space.states
            )
        return self._theta_key_cache

    def theta_key(self) -> Tuple[int, ...]:
        """A canonical hashable key for the endomorphism.

        Two strong views are isomorphic iff they induce the same
        endomorphism of the base state space; this key (theta as a tuple
        of state indices) therefore identifies views up to isomorphism.
        """
        self.require_strong()
        return self._theta_indices()


def image_poset(view: View, space: StateSpace) -> FinitePoset:
    """The view states under relation-wise inclusion."""
    if bulk_enabled():
        from repro.kernel.strongfast import image_poset_bitset

        return image_poset_bitset(view.image_states(space))
    return FinitePoset.from_leq(
        view.image_states(space), lambda a, b: a.issubset(b)
    )


def analyze_view(view: View, space: StateSpace) -> StrongViewAnalysis:
    """Analyse a view's mapping as a ⊥-poset morphism (Definition §2.3).

    The target poset is the image of ``gamma'`` (the paper's standing
    surjectivity assumption makes this ``LDB(V, mu)``), so surjectivity
    holds by construction and is not a separate condition here.

    Under the bulk kernel (the default) the analysis runs on word-packed
    mask families (:mod:`repro.kernel.strongfast`); set
    ``REPRO_KERNEL=naive`` for the original tuple-by-tuple predicates.
    Both produce identical analyses (enforced by ``tests/kernel/``).
    """
    if bulk_enabled():
        from repro.kernel.strongfast import analyze_view_bulk

        return analyze_view_bulk(view, space)
    target = image_poset(view, space)
    table = dict(zip(space.states, view.image_table(space)))
    morphism = PosetMorphism(space.poset, target, table)
    is_monotone = morphism.is_monotone()
    preserves_bottom = morphism.preserves_bottom()
    admits_lp = morphism.admits_least_preimages()
    sharp_table: Optional[Dict[DatabaseInstance, DatabaseInstance]] = None
    theta_table: Optional[Dict[DatabaseInstance, DatabaseInstance]] = None
    sharp_monotone = False
    downward_stationary = False
    if admits_lp:
        sharp = morphism.least_right_inverse()
        sharp_monotone = sharp.is_morphism()
        downward_stationary = morphism.is_downward_stationary()
        sharp_table = sharp.table
        theta_table = {
            state: sharp_table[table[state]] for state in space.states
        }
    return StrongViewAnalysis(
        view=view,
        space=space,
        is_monotone=is_monotone,
        preserves_bottom=preserves_bottom,
        admits_least_preimages=admits_lp,
        sharp_is_monotone=sharp_monotone,
        is_downward_stationary=downward_stationary,
        sharp=sharp_table,
        theta=theta_table,
    )


def is_strong_view(view: View, space: StateSpace) -> bool:
    """Convenience wrapper over :func:`analyze_view`."""
    return analyze_view(view, space).is_strong
