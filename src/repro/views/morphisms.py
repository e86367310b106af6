"""Morphisms between views; definability and isomorphism (paper §2.2).

For views ``Gamma1, Gamma2`` of the same schema there is *at most one*
morphism ``Gamma1 -> Gamma2`` (Proposition 2.2.1), and it exists exactly
when ``Gamma1`` defines ``Gamma2`` -- implicitly iff explicitly, by
Theorem 2.2.2 (Beth).  Over a finite state space the criterion is
decidable: ``Gamma1`` defines ``Gamma2`` iff ``Pi(Gamma1)`` refines
``Pi(Gamma2)``, and the morphism's state table is read off the fibres.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import NotComparableError
from repro.kernel.config import bulk_enabled
from repro.relational.enumeration import StateSpace
from repro.relational.instances import DatabaseInstance
from repro.views.view import View


def defines(definer: View, defined: View, space: StateSpace) -> bool:
    """True iff *definer* (implicitly = explicitly) defines *defined*.

    Criterion of §2.2: ``Pi(definer)`` is finer than ``Pi(defined)``.
    Under the bulk kernel the refinement check is one zip pass over the
    two image tables -- ``Pi(definer)`` refines ``Pi(defined)`` exactly
    when the state table *definer image -> defined image* is
    well-defined -- skipping Partition construction entirely.
    """
    if bulk_enabled():
        witness: Dict[DatabaseInstance, DatabaseInstance] = {}
        for a, b in zip(
            definer.image_table(space), defined.image_table(space)
        ):
            if witness.setdefault(a, b) != b:
                return False
        return True
    return definer.kernel(space).refines(defined.kernel(space))


def view_leq(smaller: View, larger: View, space: StateSpace) -> bool:
    """The ordering of ``[View(D)]``: ``smaller <= larger`` iff *larger*
    defines *smaller*."""
    return defines(larger, smaller, space)


def view_morphism_table(
    source: View, target: View, space: StateSpace
) -> Dict[DatabaseInstance, DatabaseInstance]:
    """The unique morphism ``source -> target`` as a state table.

    Maps each state of the source view to the corresponding state of the
    target view.  Raises :class:`~repro.errors.NotComparableError` when
    no morphism exists (i.e. *source* does not define *target*).

    This is the function ``f'`` whose existence Theorem 2.2.2 guarantees
    and which Update Procedure 3.2.3 uses to filter update requests.
    """
    if not defines(source, target, space):
        raise NotComparableError(
            f"{source.name!r} does not define {target.name!r}; "
            "no view morphism exists"
        )
    source_table = source.image_table(space)
    target_table = target.image_table(space)
    morphism: Dict[DatabaseInstance, DatabaseInstance] = {}
    for index in range(len(space)):
        morphism[source_table[index]] = target_table[index]
    return morphism


def are_isomorphic(left: View, right: View, space: StateSpace) -> bool:
    """True iff the views are isomorphic (Proposition 2.2.1(b)).

    Equivalent to mutual definability, i.e. equal kernels; under the
    bulk kernel this is two zip passes instead of materialising and
    hashing both kernel partitions.
    """
    if bulk_enabled():
        return defines(left, right, space) and defines(right, left, space)
    return left.kernel(space) == right.kernel(space)
