"""Integer encoding of database instances over a fixed tuple table.

A :class:`TupleCodec` fixes a finite table of ``(relation, row)`` slots
and assigns each slot one bit.  A :class:`DatabaseInstance` whose rows
all lie in the table is then a single Python ``int``, and Notational
Convention 1.2.3's relation-by-relation set operations collapse to
machine integer operations::

    a.issubset(b)              <->  enc(a) & ~enc(b) == 0
    a.union(b)                 <->  enc(a) | enc(b)
    a.intersection(b)          <->  enc(a) & enc(b)
    a.symmetric_difference(b)  <->  enc(a) ^ enc(b)

:meth:`TupleCodec.from_instances` builds the table from only the rows
actually observed in a family of states (used by :class:`StateSpace`
and view-image posets, where ``LDB`` is often far smaller than the
typed tuple universe, and where generator-built states may contain rows
outside any typed universe).

Bit layout is deterministic: relations in sorted name order, rows in
:func:`repro.relational.relations._sort_key` order within each
relation, so equal state families always produce equal masks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.errors import ReproError
from repro.relational.instances import DatabaseInstance
from repro.relational.relations import Relation, Row, _sort_key
from repro.resilience.faults import fault_check
from repro.resilience.guard import current_guard


class TupleCodec:
    """A fixed ``(relation, row) -> bit`` table with encode/decode."""

    __slots__ = ("_arities", "_bit_of", "_slots", "_names")

    def __init__(
        self,
        arities: Dict[str, int],
        rows_by_relation: Dict[str, Tuple[Row, ...]],
    ) -> None:
        self._arities: Dict[str, int] = dict(arities)
        self._names: Tuple[str, ...] = tuple(sorted(self._arities))
        self._bit_of: Dict[Tuple[str, Row], int] = {}
        slots: List[Tuple[str, Row]] = []
        guard = current_guard()
        for name in self._names:
            for row in rows_by_relation.get(name, ()):
                if guard is not None:
                    guard.tick()
                slot = (name, row)
                if slot in self._bit_of:
                    raise ReproError(f"duplicate codec slot {slot!r}")
                self._bit_of[slot] = len(slots)
                slots.append(slot)
        self._slots: Tuple[Tuple[str, Row], ...] = tuple(slots)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_instances(
        cls, instances: Iterable[DatabaseInstance]
    ) -> "TupleCodec":
        """Codec over exactly the rows observed in *instances*.

        All instances must share one signature (the first one seen fixes
        it); rows are deduplicated and sorted for a deterministic bit
        layout.
        """
        arities: Dict[str, int] = {}
        observed: Dict[str, Set[Row]] = {}
        first = True
        guard = current_guard()
        for instance in instances:
            if guard is not None:
                guard.tick()
            if first:
                for name, rel in instance.items():
                    arities[name] = rel.arity
                    observed[name] = set()
                first = False
            for name, rel in instance.items():
                if name not in observed:
                    raise ReproError(
                        f"instance adds unknown relation {name!r} to codec"
                    )
                observed[name].update(rel.rows)
        if first:
            raise ReproError("cannot build a codec from zero instances")
        return cls(
            arities,
            {
                name: tuple(sorted(rows, key=_sort_key))
                for name, rows in observed.items()
            },
        )

    # -- introspection --------------------------------------------------------

    @property
    def width(self) -> int:
        """Number of bits (tuple slots)."""
        return len(self._slots)

    @property
    def slots(self) -> Tuple[Tuple[str, Row], ...]:
        """The ``(relation, row)`` slot per bit, in bit order."""
        return self._slots

    def arities(self) -> Dict[str, int]:
        """Relation name -> arity of the codec's signature."""
        return dict(self._arities)

    def bit(self, relation: str, row: Row) -> int:
        """The bit index of a slot (raises if not in the table)."""
        try:
            return self._bit_of[(relation, tuple(row))]
        except KeyError:
            raise ReproError(
                f"row {row!r} of relation {relation!r} is outside the "
                "codec's tuple table"
            ) from None

    # -- encode / decode ------------------------------------------------------

    def encode(self, instance: DatabaseInstance) -> int:
        """The bitmask of an instance (raises on out-of-table rows)."""
        mask = 0
        bit_of = self._bit_of
        # reprolint: disable=RL002 -- bounded by one instance's rows; the
        # per-family caller loop ticks (encode_all), and a guard lookup
        # here would tax the innermost hot path
        for name, rel in instance.items():
            for row in rel.rows:  # reprolint: disable=RL002 -- as above
                try:
                    mask |= 1 << bit_of[(name, row)]
                except KeyError:
                    raise ReproError(
                        f"row {row!r} of relation {name!r} is outside "
                        "the codec's tuple table"
                    ) from None
        return mask

    def encode_all(
        self, instances: Iterable[DatabaseInstance]
    ) -> Tuple[int, ...]:
        """Encode a family of instances (guard ticks amortized)."""
        from repro.kernel.bulkops import StrideTicker

        fault_check("kernel.encode")
        ticker = StrideTicker()
        masks: List[int] = []
        for instance in instances:
            ticker.tick()
            masks.append(self.encode(instance))
        ticker.flush()
        return tuple(masks)

    def decode(self, mask: int) -> DatabaseInstance:
        """The instance of a bitmask (inverse of :meth:`encode`)."""
        if mask < 0 or mask >> self.width:
            raise ReproError(
                f"mask {mask:#x} has bits outside the {self.width}-slot table"
            )
        rows: Dict[str, List[Row]] = {name: [] for name in self._names}
        # reprolint: disable=RL002 -- one bit per set slot: bounded by the
        # codec width for a single decode
        while mask:
            bit = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            name, row = self._slots[bit]
            rows[name].append(row)
        return DatabaseInstance(
            {
                name: Relation(rows[name], self._arities[name])
                for name in self._names
            }
        )

    def __repr__(self) -> str:
        return (
            f"TupleCodec({len(self._names)} relations, {self.width} slots)"
        )
