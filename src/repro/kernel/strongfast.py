"""The strong-view analysis (paper §2.3) computed on mask vectors.

Produces a :class:`~repro.core.strong.StrongViewAnalysis` identical to
the naive one in :func:`repro.core.strong.analyze_view` -- same
verdicts, same ``gamma#``/``gamma^Theta`` tables -- but replaces the
quadratic tuple-by-tuple predicate checks with integer arithmetic over
the state-space poset's down-set masks:

* the image poset is built from instance bitmasks
  (:meth:`FinitePoset.from_masks`), not ``n^2`` ``issubset`` calls;
* monotonicity (of ``gamma'`` and of ``gamma#``) is the word-packed
  pulled-selector test of :func:`repro.kernel.bulkops.pullback_monotone`
  -- one mask containment per state instead of a Python step per
  comparable pair;
* least preimages come from fiber masks: the least element of a fiber
  is the member whose down-set covers the whole fiber;
* downward stationarity is one mask-containment pass over ``lp``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from repro.kernel.bitspace import TupleCodec
from repro.kernel.bulkops import StrideTicker, fiber_masks, pullback_monotone
from repro.algebra.poset import FinitePoset
from repro.relational.instances import DatabaseInstance, sorted_instances
from repro.resilience.faults import fault_check

if TYPE_CHECKING:
    from repro.core.strong import StrongViewAnalysis
    from repro.relational.enumeration import StateSpace
    from repro.views.view import View


def image_poset_bitset(states: Iterable[DatabaseInstance]) -> FinitePoset:
    """The ⊥-poset of a family of instances, via bitmask encoding."""
    ordered = tuple(states)
    codec = TupleCodec.from_instances(ordered)
    return FinitePoset.from_masks(ordered, codec.encode_all(ordered))


def _analyze_identity_like(
    view: View, space: StateSpace
) -> StrongViewAnalysis:
    """Fast path for a view whose ``gamma'`` fixes every state.

    The image is the state set itself (``space.states`` is already in
    :func:`sorted_instances` order), so the image poset *is* the state
    poset and every derived answer is forced: ``gamma'`` and ``gamma#``
    are the identity, every state is its own least preimage, and the
    monotonicity/stationarity predicates hold trivially.  Skipping the
    re-derivation matters because the identity view participates in
    every :meth:`ComponentAlgebra.discover` call.
    """
    from repro.core.strong import StrongViewAnalysis

    states = space.states
    has_bottom = space.poset.has_bottom()
    identity_table = {state: state for state in states}
    analysis = StrongViewAnalysis(
        view=view,
        space=space,
        is_monotone=True,
        preserves_bottom=has_bottom,
        admits_least_preimages=True,
        sharp_is_monotone=has_bottom,
        is_downward_stationary=True,
        sharp=dict(identity_table),
        theta=identity_table,
    )
    if analysis.is_strong:
        analysis._theta_key_cache = tuple(range(len(states)))
    return analysis


def analyze_view_bulk(view: View, space: StateSpace) -> StrongViewAnalysis:
    """Bulk-kernel twin of :func:`repro.core.strong.analyze_view`."""
    from repro.core.strong import StrongViewAnalysis

    fault_check("kernel.analysis")

    states = space.states
    source = space.poset
    below_s = source.leq_matrix()

    raw_table = view.image_table(space)
    if raw_table == states:
        return _analyze_identity_like(view, space)
    image_states = sorted_instances(set(raw_table))
    target = image_poset_bitset(image_states)
    below_t = target.leq_matrix()
    target_index = {state: i for i, state in enumerate(image_states)}
    fidx = [target_index[image] for image in raw_table]

    is_monotone = pullback_monotone(below_s, below_t, fidx)

    preserves_bottom = (
        source.has_bottom()
        and target.has_bottom()
        and raw_table[source.index(source.bottom())] == target.bottom()
    )

    # Fibers of gamma' as masks over source state indices.
    m = len(image_states)
    fibers = fiber_masks(fidx, m)
    # Least preimage per image state: the fiber member whose up-set
    # contains the entire fiber (it is below every other member).
    # States are ordered by size, so the least element (when it exists)
    # tends to be an early set bit.
    up_s = source._up_matrix()
    sharp_idx: List[int] = [-1] * m
    admits_lp = True
    ticker = StrideTicker()
    for f in range(m):
        ticker.tick()
        fiber = fibers[f]
        probe = fiber
        least: Optional[int] = None
        while probe:  # reprolint: holds-guard -- bounded by the fiber
            # popcount; the enclosing per-fiber loop is stride-ticked
            x = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            if fiber & ~up_s[x] == 0:
                least = x
                break
        if least is None:
            admits_lp = False
            break
        sharp_idx[f] = least
    ticker.flush()

    sharp_table: Optional[Dict[DatabaseInstance, DatabaseInstance]] = None
    theta_table: Optional[Dict[DatabaseInstance, DatabaseInstance]] = None
    theta_idx: Optional[List[int]] = None
    sharp_monotone = False
    downward_stationary = False
    if admits_lp:
        sharp_table = {v: states[k] for v, k in zip(image_states, sharp_idx)}
        # `sharp_is_monotone` mirrors the naive path's sharp.is_morphism():
        # monotone *and* bottom-preserving.  gamma# preserves bottom
        # exactly when gamma' does: gamma'(gamma#(y)) = y, and a bottom
        # state is the least member of its own fiber.
        sharp_monotone = preserves_bottom and pullback_monotone(
            below_t, below_s, sharp_idx
        )

        lp_mask = 0
        ticker = StrideTicker()
        for f in range(m):
            ticker.tick()
            lp_mask |= 1 << sharp_idx[f]
        downward_stationary = True
        probe = lp_mask
        while probe:
            ticker.tick()
            x = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            if below_s[x] & ~lp_mask:
                downward_stationary = False
                break
        ticker.flush()

        theta_idx = [sharp_idx[f] for f in fidx]
        theta_table = {s: states[k] for s, k in zip(states, theta_idx)}

    analysis = StrongViewAnalysis(
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
    if analysis.is_strong and theta_idx is not None:
        analysis._theta_key_cache = tuple(theta_idx)
    return analysis
