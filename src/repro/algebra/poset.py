"""Finite partially ordered sets and ⊥-posets.

A :class:`FinitePoset` stores its elements and the full order relation as
bitsets over element indices, so all the questions the paper's Section 2
asks -- bottom element, least upper bounds, down-sets, products -- are
answered by set arithmetic.

``LDB(D, mu)`` under relation-by-relation inclusion is the motivating
instance (constructed by :class:`repro.relational.enumeration.StateSpace`),
but the classes here are generic over hashable elements and are unit
tested on abstract posets.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import PosetError
from repro.resilience.faults import fault_check
from repro.resilience.guard import current_guard


class FinitePoset:
    """An immutable finite poset over hashable elements.

    Construct via :meth:`from_leq` (from a comparison callable) or
    :meth:`from_relation` (from explicit related pairs, reflexive-
    transitively closed by the caller).
    """

    __slots__ = (
        "_elements",
        "_index",
        "_below",
        "_above",
        "_minimal",
        "_maximal",
        "_source_masks",
        "_contain",
    )

    def __init__(self, elements: Sequence[Hashable], below: Sequence[int]):
        """Internal constructor; prefer :meth:`from_leq`.

        *below[i]* is a bitmask of the indices ``j`` with ``e_j <= e_i``
        (the down-set of element ``i``, including ``i`` itself).
        """
        self._elements: Tuple[Hashable, ...] = tuple(elements)
        self._index: Dict[Hashable, int] = {
            e: i for i, e in enumerate(self._elements)
        }
        if len(self._index) != len(self._elements):
            raise PosetError("poset elements must be distinct")
        self._below: Tuple[int, ...] = tuple(below)
        self._above: Optional[Tuple[int, ...]] = None
        self._minimal: Optional[Tuple[Hashable, ...]] = None
        self._maximal: Optional[Tuple[Hashable, ...]] = None
        #: Element encodings and their inclusion index, retained by
        #: :meth:`from_masks`; :meth:`_up_matrix` reads up-sets off them.
        self._source_masks: Optional[Tuple[int, ...]] = None
        self._contain: Optional[Tuple[int, ...]] = None

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_leq(
        cls,
        elements: Iterable[Hashable],
        leq: Callable[[Hashable, Hashable], bool],
    ) -> "FinitePoset":
        """Build from a comparison callable (must be a partial order)."""
        elements = tuple(elements)
        guard = current_guard()
        below: List[int] = []
        for i, upper in enumerate(elements):
            if guard is not None:
                guard.tick()
            mask = 0
            for j, lower in enumerate(elements):
                if leq(lower, upper):
                    mask |= 1 << j
            if not mask & (1 << i):
                raise PosetError(f"leq is not reflexive at {upper!r}")
            below.append(mask)
        poset = cls(elements, below)
        poset._check_partial_order()
        return poset

    @classmethod
    def from_masks(
        cls,
        elements: Iterable[Hashable],
        masks: Sequence[int],
    ) -> "FinitePoset":
        """Build the inclusion order of bitmask-encoded elements.

        ``masks[i]`` is an integer set-encoding of ``elements[i]`` (e.g.
        from :class:`repro.kernel.bitspace.TupleCodec`); the order is
        mask inclusion.  Instead of the ``n^2`` pairwise comparisons of
        :meth:`from_leq`, this inverts the encoding once -- for each
        tuple-bit ``t``, ``contain[t]`` is the mask of elements whose
        encoding has ``t`` -- and computes each down-set as
        ``all & ~OR(contain[t] for t outside the element)``, i.e. work
        proportional to ``n * width`` integer ops.

        Mask inclusion over distinct masks is a partial order by
        construction, so no :meth:`_check_partial_order` pass is run.
        """
        fault_check("kernel.poset")
        elements = tuple(elements)
        masks = tuple(masks)
        if len(masks) != len(elements):
            raise PosetError("from_masks needs one mask per element")
        if len(set(masks)) != len(masks):
            raise PosetError("element masks must be distinct")
        guard = current_guard()
        n = len(elements)
        width = max(masks).bit_length() if masks else 0
        contain = [0] * width
        for i, mask in enumerate(masks):
            probe = mask
            while probe:
                t = (probe & -probe).bit_length() - 1
                probe &= probe - 1
                contain[t] |= 1 << i
        full = (1 << n) - 1
        universe = (1 << width) - 1
        below: List[int] = []
        if n >= 48 and width:
            # Large family: collapse the per-element bit walk into one
            # per-byte table OR per chunk (the precomputed tables are
            # amortized across all n down-sets).
            from repro.kernel.bulkops import (
                chunked_union_tables,
                union_selected_chunked,
            )

            tables = chunked_union_tables(contain)
            for mask in masks:
                if guard is not None:
                    guard.tick()
                excluded = union_selected_chunked(tables, universe & ~mask)
                below.append(full & ~excluded)
        else:
            for mask in masks:
                if guard is not None:
                    guard.tick()
                down = full
                probe = universe & ~mask
                while probe:
                    t = (probe & -probe).bit_length() - 1
                    probe &= probe - 1
                    down &= ~contain[t]
                below.append(down)
        poset = cls(elements, below)
        poset._source_masks = masks
        poset._contain = tuple(contain)
        return poset

    @classmethod
    def from_relation(
        cls,
        elements: Iterable[Hashable],
        pairs: Iterable[Tuple[Hashable, Hashable]],
    ) -> "FinitePoset":
        """Build from covering/ordering pairs; takes the reflexive-
        transitive closure automatically."""
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        below = [1 << i for i in range(n)]
        for low, high in pairs:
            below[index[high]] |= 1 << index[low]
        # Transitive closure (simple fixpoint; posets here are small).
        changed = True
        while changed:
            changed = False
            for i in range(n):
                mask = below[i]
                expanded = mask
                j_mask = mask
                while j_mask:
                    j = (j_mask & -j_mask).bit_length() - 1
                    j_mask &= j_mask - 1
                    expanded |= below[j]
                if expanded != mask:
                    below[i] = expanded
                    changed = True
        poset = cls(elements, below)
        poset._check_partial_order()
        return poset

    def _check_partial_order(self) -> None:
        n = len(self._elements)
        for i in range(n):
            for j in range(n):
                if i != j and self._below[i] & (1 << j) and self._below[j] & (1 << i):
                    raise PosetError(
                        f"antisymmetry violated between "
                        f"{self._elements[i]!r} and {self._elements[j]!r}"
                    )
        for i in range(n):
            mask = self._below[i]
            j_mask = mask
            while j_mask:
                j = (j_mask & -j_mask).bit_length() - 1
                j_mask &= j_mask - 1
                if self._below[j] & ~mask:
                    raise PosetError("transitivity violated")

    # -- basics --------------------------------------------------------------------

    @property
    def elements(self) -> Tuple[Hashable, ...]:
        """The elements, in construction order."""
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._elements)

    def __contains__(self, element: Hashable) -> bool:
        return element in self._index

    def index(self, element: Hashable) -> int:
        """Index of an element."""
        try:
            return self._index[element]
        except KeyError:
            raise PosetError(f"{element!r} is not in the poset") from None

    def leq(self, low: Hashable, high: Hashable) -> bool:
        """True iff ``low <= high``."""
        return bool(self._below[self.index(high)] & (1 << self.index(low)))

    def leq_matrix(self) -> Tuple[int, ...]:
        """The order as bitmasks: ``matrix[i]`` has bit ``j`` set iff
        ``elements[j] <= elements[i]``.

        Exposed for bulk order computations (e.g. the product-isomorphism
        test of Lemma 2.3.2) that would otherwise pay per-call lookup
        overhead millions of times.
        """
        return self._below

    def lt(self, low: Hashable, high: Hashable) -> bool:
        """True iff ``low < high``."""
        return low != high and self.leq(low, high)

    def comparable(self, a: Hashable, b: Hashable) -> bool:
        """True iff ``a <= b`` or ``b <= a``."""
        return self.leq(a, b) or self.leq(b, a)

    # -- bitmask helpers -------------------------------------------------------------

    def _mask_elements(self, mask: int) -> Tuple[Hashable, ...]:
        out = []
        while mask:
            i = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            out.append(self._elements[i])
        return tuple(out)

    def _down_mask(self, element: Hashable) -> int:
        return self._below[self.index(element)]

    def _up_matrix(self) -> Tuple[int, ...]:
        """Transpose of :meth:`leq_matrix`: ``matrix[i]`` has bit ``j``
        set iff ``elements[i] <= elements[j]`` (cached).

        A :meth:`from_masks` poset reads each up-set off its inclusion
        index: the elements above ``i`` are those holding every tuple-bit
        of ``masks[i]``, the AND of ``contain[t]`` over those bits (every
        element, for the empty mask).  Any other poset transposes its
        down-sets with :func:`repro.kernel.bulkops.transpose_masks`.
        """
        if self._above is not None:
            return self._above
        n = len(self._elements)
        if self._source_masks is None or self._contain is None:
            from repro.kernel.bulkops import transpose_masks

            self._above = tuple(transpose_masks(self._below, n))
            return self._above
        guard = current_guard()
        contain = self._contain
        full = (1 << n) - 1
        above: List[int] = []
        for mask in self._source_masks:
            if guard is not None:
                guard.tick()
            up = full
            while mask:
                t = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                up &= contain[t]
            above.append(up)
        self._above = tuple(above)
        return self._above

    def _up_mask(self, element: Hashable) -> int:
        return self._up_matrix()[self.index(element)]

    # -- bounds and extremes -----------------------------------------------------------

    def minimal_elements(self) -> Tuple[Hashable, ...]:
        """Elements with nothing strictly below them (cached)."""
        if self._minimal is None:
            self._minimal = tuple(
                e
                for i, e in enumerate(self._elements)
                if self._below[i] == (1 << i)
            )
        return self._minimal

    def maximal_elements(self) -> Tuple[Hashable, ...]:
        """Elements with nothing strictly above them (cached).

        Reads the cached up-sets of :meth:`_up_matrix` instead of
        re-walking ``_below`` bit by bit per element.
        """
        if self._maximal is None:
            up = self._up_matrix()
            self._maximal = tuple(
                e
                for i, e in enumerate(self._elements)
                if up[i] == (1 << i)
            )
        return self._maximal

    def bottom(self) -> Hashable:
        """The least element; raises :class:`PosetError` if none exists."""
        common = (1 << len(self._elements)) - 1 if self._elements else 0
        for mask in self._below:
            common &= mask
            if not common:
                break
        if not common:
            raise PosetError("poset has no bottom element")
        return self._elements[(common & -common).bit_length() - 1]

    def has_bottom(self) -> bool:
        """True iff a least element exists (a ⊥-poset)."""
        try:
            self.bottom()
            return True
        except PosetError:
            return False

    def top(self) -> Hashable:
        """The greatest element; raises :class:`PosetError` if none."""
        full = (1 << len(self._elements)) - 1
        for i, e in enumerate(self._elements):
            if self._below[i] == full:
                return e
        raise PosetError("poset has no top element")

    def has_top(self) -> bool:
        """True iff a greatest element exists."""
        try:
            self.top()
            return True
        except PosetError:
            return False

    # -- joins and meets -----------------------------------------------------------------

    def upper_bounds(self, elements: Iterable[Hashable]) -> Tuple[Hashable, ...]:
        """All common upper bounds of the given elements."""
        mask = (1 << len(self._elements)) - 1
        for element in elements:
            mask &= self._up_mask(element)
        return self._mask_elements(mask)

    def lower_bounds(self, elements: Iterable[Hashable]) -> Tuple[Hashable, ...]:
        """All common lower bounds of the given elements."""
        mask = (1 << len(self._elements)) - 1
        for element in elements:
            mask &= self._down_mask(element)
        return self._mask_elements(mask)

    def join(self, a: Hashable, b: Hashable) -> Optional[Hashable]:
        """Least upper bound, or ``None`` if it does not exist."""
        bounds = self.upper_bounds((a, b))
        least = [
            u for u in bounds if all(self.leq(u, other) for other in bounds)
        ]
        return least[0] if least else None

    def meet(self, a: Hashable, b: Hashable) -> Optional[Hashable]:
        """Greatest lower bound, or ``None`` if it does not exist."""
        bounds = self.lower_bounds((a, b))
        greatest = [
            l for l in bounds if all(self.leq(other, l) for other in bounds)
        ]
        return greatest[0] if greatest else None

    def join_all(self, elements: Iterable[Hashable]) -> Optional[Hashable]:
        """Least upper bound of a set, or ``None``."""
        bounds = self.upper_bounds(tuple(elements))
        least = [
            u for u in bounds if all(self.leq(u, other) for other in bounds)
        ]
        return least[0] if least else None

    def is_lattice(self) -> bool:
        """True iff every pair has both a join and a meet."""
        for a in self._elements:
            for b in self._elements:
                if self.join(a, b) is None or self.meet(a, b) is None:
                    return False
        return True

    # -- down-sets ----------------------------------------------------------------------

    def down_set(self, element: Hashable) -> Tuple[Hashable, ...]:
        """All elements ``<= element`` (the principal down-set)."""
        return self._mask_elements(self._down_mask(element))

    def is_down_set(self, subset: Iterable[Hashable]) -> bool:
        """True iff *subset* is downward closed."""
        subset = set(subset)
        return all(
            set(self.down_set(element)) <= subset for element in subset
        )

    def down_sets(self) -> Iterator[frozenset]:
        """Enumerate all down-closed subsets (exponential; small posets only)."""
        n = len(self._elements)
        for mask in range(1 << n):
            ok = True
            probe = mask
            while probe:
                i = (probe & -probe).bit_length() - 1
                probe &= probe - 1
                if self._below[i] & ~mask:
                    ok = False
                    break
            if ok:
                yield frozenset(self._mask_elements(mask))

    # -- structure ----------------------------------------------------------------------

    def covers(self, low: Hashable, high: Hashable) -> bool:
        """True iff *high* covers *low* (nothing strictly between)."""
        if not self.lt(low, high):
            return False
        between = self._down_mask(high) & self._up_mask(low)
        # between includes low and high themselves.
        return bin(between).count("1") == 2

    def product(self, other: "FinitePoset") -> "FinitePoset":
        """Componentwise-ordered product poset."""
        elements = [
            (a, b) for a in self._elements for b in other._elements
        ]
        return FinitePoset.from_leq(
            elements,
            lambda p, q: self.leq(p[0], q[0]) and other.leq(p[1], q[1]),
        )

    def restrict(self, subset: Iterable[Hashable]) -> "FinitePoset":
        """The induced subposet on *subset*."""
        subset = tuple(subset)
        for element in subset:
            self.index(element)
        return FinitePoset.from_leq(subset, self.leq)

    def __repr__(self) -> str:
        return f"FinitePoset({len(self._elements)} elements)"
