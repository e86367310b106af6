"""Word-packed bulk bitwise primitives (the ``bulk`` kernel's core).

The mask encoding (:mod:`repro.kernel.bitspace`) turns each state into
one Python int, but per-state Python loops over those ints would still
dominate the derivations.  This module packs whole families of masks
into single wide integers and replaces the inner loops with O(words)
sweeps of ``&``/``|``/``^``/``bit_count``:

* :func:`transpose_masks` -- a bit-matrix transpose by one walk over
  each row's set bits, which derives the up-matrix of a poset built
  without an encoding (mask-built posets read theirs off the inclusion
  index, :meth:`repro.algebra.poset.FinitePoset._up_matrix`);
* :func:`pullback_monotone` -- monotonicity of an indexed map between
  two posets decided by pulled-back down-set masks (one mask comparison
  per element, selectors memoized per distinct image), replacing the
  walk over every comparable pair;
* :func:`fiber_masks` / :func:`union_selected` -- preimage classes of a
  map as masks over source indices;
* :func:`restriction_key_mask` -- the codec-slot mask of a relation
  read set, which lets view image tables be evaluated once per distinct
  restriction instead of once per state;
* :class:`StrideTicker` -- amortized ``guard.tick`` bookkeeping: hot
  loops charge the guard once per 256 iterations with the stride
  accounted exactly in the step budget, so cooperative cancellation
  stays accurate without a per-state call.

Packing invariant (DESIGN.md "Word-packed memory layout"): bit ``i``
of every family-level mask refers to the ``i``-th element of the
deterministically ordered family (state order for state spaces, slot
order for codecs).  Nothing here changes what is *computed* -- only
how -- so fingerprints, artifact keys, and every table are
byte-identical to the naive kernel's.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.resilience.guard import ExecutionGuard, current_guard

__all__ = [
    "DEFAULT_TICK_STRIDE",
    "UNION_CHUNK_BITS",
    "StrideTicker",
    "chunked_union_tables",
    "fiber_masks",
    "pullback_monotone",
    "restriction_key_mask",
    "transpose_masks",
    "union_selected",
    "union_selected_chunked",
]

#: Iterations per amortized ``guard.tick`` in kernel hot loops (the
#: stride is charged to the step budget in full).
DEFAULT_TICK_STRIDE = 256


class StrideTicker:
    """Amortized guard ticking for hot loops.

    Counts iterations locally and charges the installed
    :class:`~repro.resilience.guard.ExecutionGuard` one batched
    ``tick(stride)`` per stride, then :meth:`flush`\\ es the remainder,
    so ``guard.steps`` advances by *exactly* the number of iterations
    -- step budgets trip at the same totals as per-iteration ticking,
    just checked every *stride* iterations instead of every one.

    When no guard is installed every call is a cheap early return.
    """

    __slots__ = ("_guard", "_stride", "_pending")

    def __init__(
        self,
        guard: Optional[ExecutionGuard] = None,
        stride: int = DEFAULT_TICK_STRIDE,
    ) -> None:
        self._guard = current_guard() if guard is None else guard
        self._stride = stride
        self._pending = 0

    def tick(self) -> None:
        """Count one iteration; charge the guard once per stride."""
        if self._guard is None:
            return
        self._pending += 1
        if self._pending >= self._stride:
            pending = self._pending
            self._pending = 0
            self._guard.tick(pending)

    def flush(self) -> None:
        """Charge any remainder below a full stride (call after loops)."""
        if self._guard is not None and self._pending:
            pending = self._pending
            self._pending = 0
            self._guard.tick(pending)


# -- bit-matrix transpose -------------------------------------------------------


def transpose_masks(rows: Sequence[int], width: int) -> List[int]:
    """Transpose a bit matrix of ``len(rows)`` rows by *width* columns.

    Returns *width* masks of ``len(rows)`` bits: bit ``i`` of output
    ``j`` equals bit ``j`` of ``rows[i]``, set by one walk over each
    row's set bits.
    """
    columns = [0] * width
    ticker = StrideTicker()
    for i, row in enumerate(rows):
        ticker.tick()
        probe = row
        while probe:  # reprolint: holds-guard -- bounded by the row
            # popcount; the enclosing per-row loop is stride-ticked
            low = probe & -probe
            probe ^= low
            columns[low.bit_length() - 1] |= 1 << i
    ticker.flush()
    return columns


# -- preimage classes and pulled-back orders ------------------------------------


def fiber_masks(fidx: Sequence[int], target_size: int) -> List[int]:
    """Preimage classes of an index map as masks over source indices.

    ``result[t]`` has bit ``i`` set iff ``fidx[i] == t`` -- the view's
    preimage class of target ``t``, word-packed.
    """
    selectors = [0] * target_size
    ticker = StrideTicker()
    for i, t in enumerate(fidx):
        ticker.tick()
        selectors[t] |= 1 << i
    ticker.flush()
    return selectors


def union_selected(selectors: Sequence[int], mask: int) -> int:
    """The union of ``selectors[t]`` over the set bits ``t`` of *mask*."""
    out = 0
    while mask:  # reprolint: holds-guard -- bounded by the popcount of
        # one selector mask; callers stride-tick per outer element
        low = mask & -mask
        mask ^= low
        out |= selectors[low.bit_length() - 1]
    return out


#: Chunk width of :func:`chunked_union_tables` (one table per byte).
UNION_CHUNK_BITS = 8


def chunked_union_tables(selectors: Sequence[int]) -> List[List[int]]:
    """Per-byte lookup tables for repeated :func:`union_selected` calls.

    Table ``c`` maps every byte value to the union of the selectors in
    chunk ``c`` picked by that byte's bits, built by one ``|`` per entry
    (each entry extends the entry with its lowest bit cleared).  A
    family queried once per state amortizes the ``256 * ceil(S/8)``
    precomputed entries immediately: each query collapses to one table
    OR per byte of the mask instead of one OR per set bit.
    """
    tables: List[List[int]] = []
    ticker = StrideTicker()
    for base in range(0, len(selectors), UNION_CHUNK_BITS):
        chunk = selectors[base : base + UNION_CHUNK_BITS]
        table = [0] * (1 << len(chunk))
        for value in range(1, len(table)):
            ticker.tick()
            low = value & -value
            table[value] = table[value ^ low] | chunk[low.bit_length() - 1]
        tables.append(table)
    ticker.flush()
    return tables


def union_selected_chunked(tables: Sequence[Sequence[int]], mask: int) -> int:
    """:func:`union_selected` through precomputed per-byte tables.

    *mask* must not extend past the selector family the tables were
    built from.
    """
    out = 0
    index = 0
    while mask:  # reprolint: holds-guard -- one iteration per byte of
        # the mask; callers stride-tick per outer element
        out |= tables[index][mask & 0xFF]
        mask >>= UNION_CHUNK_BITS
        index += 1
    return out


def pullback_monotone(
    below_source: Sequence[int],
    below_target: Sequence[int],
    fidx: Sequence[int],
) -> bool:
    """``x <= y  =>  f(x) <= f(y)`` decided by pulled-back down-sets.

    For each source element ``y`` the condition is one mask containment:
    ``below_source[y]`` must lie inside ``pull[f(y)]``, where
    ``pull[t] = {x : f(x) <= t}`` is the union of the preimage-class
    selectors over the down-set of ``t`` -- memoized per distinct image,
    so the whole check is O(n) mask ops plus O(m * m-popcount) selector
    unions, instead of a Python step per comparable pair.

    Equivalent to a walk over every comparable pair (incomparable pairs
    impose no condition; ``y`` itself is always in ``pull[f(y)]``).
    """
    selectors = fiber_masks(fidx, len(below_target))
    # Targets outside the image have empty selectors; restricting each
    # down-set to the image support shrinks the per-union bit walk from
    # O(|target|) to O(|image|).
    support = 0
    image_size = 0
    # reprolint: holds-guard -- one pass over the selector family; the
    # per-element loop below is stride-ticked
    for t, selector in enumerate(selectors):
        if selector:
            support |= 1 << t
            image_size += 1
    # One pulled mask is derived per distinct image element; when that
    # pays for the 256-entries-per-chunk precomputation, route the
    # unions through per-byte tables instead of per-bit walks.
    chunks = (len(selectors) + UNION_CHUNK_BITS - 1) // UNION_CHUNK_BITS
    tables = (
        chunked_union_tables(selectors)
        if (1 << UNION_CHUNK_BITS) * chunks < image_size * image_size // 4
        else None
    )
    pulled: Dict[int, int] = {}
    ticker = StrideTicker()
    for y, below_y in enumerate(below_source):
        ticker.tick()
        t = fidx[y]
        mask = pulled.get(t)
        if mask is None:
            if tables is not None:
                mask = union_selected_chunked(tables, below_target[t] & support)
            else:
                mask = union_selected(selectors, below_target[t] & support)
            pulled[t] = mask
        if below_y & ~mask:
            ticker.flush()
            return False
    ticker.flush()
    return True


# -- codec read-set restriction -------------------------------------------------


def restriction_key_mask(
    slots: Sequence[Tuple[str, object]], relations: Iterable[str]
) -> int:
    """The mask of codec slots belonging to the given relations.

    Restricting a state's mask to this key identifies its content on
    exactly those relations; states with equal restrictions are
    indistinguishable to any mapping whose read set lies inside them,
    so one evaluation per distinct restriction covers the whole family.
    """
    wanted = frozenset(relations)
    mask = 0
    ticker = StrideTicker()
    for bit, (name, _row) in enumerate(slots):
        ticker.tick()
        if name in wanted:
            mask |= 1 << bit
    ticker.flush()
    return mask
