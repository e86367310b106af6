"""Views ``Gamma = (V, gamma)`` with per-state-space tables.

A :class:`View` couples a view schema with a database mapping from a
base schema.  All semantic questions (image, kernel, surjectivity) are
asked relative to a :class:`~repro.relational.enumeration.StateSpace`
of the base schema.  The tables they read -- the image ``gamma'``, the
kernel ``Pi(Gamma)`` and the fibres -- are memoized on the space
(:meth:`~repro.relational.enumeration.StateSpace.derived`) under the
view's fingerprint and the kernel mode: equal views share one table,
each kernel builds its own, and a table is freed with its space.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.engine.fingerprint import (
    is_content_addressed as fingerprint_is_content_addressed,
    stable_fingerprint,
)
from repro.errors import NotSurjectiveError, SchemaError
from repro.algebra.partitions import Partition
from repro.kernel.config import bulk_enabled, kernel_mode
from repro.relational.enumeration import StateSpace
from repro.relational.instances import DatabaseInstance, sorted_instances
from repro.relational.schema import Schema
from repro.typealgebra.assignment import TypeAssignment
from repro.views.mappings import DatabaseMapping, IdentityMapping, ZeroMapping


class View:
    """A view of a base schema.

    Parameters
    ----------
    name:
        Display name (``Gamma_1`` etc.).
    base_schema:
        The base schema ``D``.
    view_schema:
        The view schema ``V``.  Its signature must match the mapping's
        target arities.  Pass ``None`` to mean "the image schema": a
        constraint-free schema whose legal states are *defined* to be
        the image of the mapping (the paper's standing surjectivity
        assumption then holds by construction).
    mapping:
        The database mapping ``gamma``.
    """

    __slots__ = (
        "name",
        "base_schema",
        "view_schema",
        "mapping",
        "_fingerprint",
        "_content_addressed",
    )

    def __init__(
        self,
        name: str,
        base_schema: Schema,
        view_schema: Optional[Schema],
        mapping: DatabaseMapping,
    ):
        if view_schema is not None:
            declared = {
                rel.name: rel.arity for rel in view_schema.relations
            }
            if declared != mapping.target_arities():
                raise SchemaError(
                    f"view {name!r}: view schema signature {declared} does "
                    f"not match mapping signature {mapping.target_arities()}"
                )
        self.name = name
        self.base_schema = base_schema
        self.view_schema = view_schema
        self.mapping = mapping
        self._fingerprint: Optional[str] = None
        self._content_addressed: Optional[bool] = None

    def __repr__(self) -> str:
        return f"View({self.name!r})"

    # -- fingerprinting ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of ``(V, gamma)`` (memoized).

        Two independently constructed but equal views fingerprint
        identically and therefore share every engine artifact (strong
        analysis, update procedure) and every per-space table.
        """
        if self._fingerprint is None:
            self._fingerprint = stable_fingerprint(
                "View",
                self.name,
                self.base_schema,
                self.view_schema,
                self.mapping,
            )
        return self._fingerprint

    @property
    def is_content_addressed(self) -> bool:
        """True iff the fingerprint is stable across processes (memoized).

        Deciding it walks the mapping's query trees, and the engine asks
        on every artifact lookup, hits included; a view's mapping never
        changes, so the answer is computed once per view object.
        """
        if self._content_addressed is None:
            self._content_addressed = fingerprint_is_content_addressed(
                self.mapping
            )
        return self._content_addressed

    # -- pickling ----------------------------------------------------------------
    #
    # The memoized fingerprint and content-addressing flag are dropped:
    # transient fingerprints are only meaningful in-process.  Neither
    # memo is pickled, so a pickle does not depend on which of them were
    # computed.

    def __getstate__(self):
        return (self.name, self.base_schema, self.view_schema, self.mapping)

    def __setstate__(self, state) -> None:
        name, base_schema, view_schema, mapping = state
        self.name = name
        self.base_schema = base_schema
        self.view_schema = view_schema
        self.mapping = mapping
        self._fingerprint = None
        self._content_addressed = None

    # -- pointwise application --------------------------------------------------

    def apply(
        self, state: DatabaseInstance, assignment: TypeAssignment
    ) -> DatabaseInstance:
        """``gamma'(state)``."""
        return self.mapping.apply(state, assignment)

    # -- per-space analyses --------------------------------------------------------

    def image_table(self, space: StateSpace) -> Tuple[DatabaseInstance, ...]:
        """``gamma'`` tabulated over the space (aligned with its states).

        Under the bulk kernel, mappings that declare a read set
        (:meth:`~repro.views.mappings.DatabaseMapping.read_relations`)
        are evaluated once per *distinct restriction* of a state to that
        read set instead of once per state: two states whose codec masks
        agree on the read-set slots hold identical content on every
        relation the mapping can observe, so they share one image.
        """

        def build() -> Tuple[DatabaseInstance, ...]:
            if bulk_enabled():
                return self._image_table_bulk(space)
            return tuple(
                self.mapping.apply(state, space.assignment)
                for state in space.states
            )

        return space.derived(
            ("image", self.fingerprint(), kernel_mode()), build
        )

    def _image_table_bulk(
        self, space: StateSpace
    ) -> Tuple[DatabaseInstance, ...]:
        from repro.kernel.bulkops import StrideTicker, restriction_key_mask

        states = space.states
        mapping = self.mapping
        if isinstance(mapping, IdentityMapping):
            return tuple(states)
        if mapping.distributes_over_union():
            return self._image_table_row_local(space)
        reads = mapping.read_relations()
        if reads is None:
            return tuple(
                mapping.apply(state, space.assignment) for state in states
            )
        read_mask = restriction_key_mask(space.codec.slots, reads)
        images: Dict[int, DatabaseInstance] = {}
        table = []
        ticker = StrideTicker()
        for state, mask in zip(states, space.masks):
            ticker.tick()
            restriction = mask & read_mask
            image = images.get(restriction)
            if image is None:
                image = mapping.apply(state, space.assignment)
                images[restriction] = image
            table.append(image)
        ticker.flush()
        return tuple(table)

    def _image_table_row_local(
        self, space: StateSpace
    ) -> Tuple[DatabaseInstance, ...]:
        """Slot-compiled image table for row-local mappings.

        ``gamma'`` distributes over row unions, so each codec slot's
        single-row image is computed once; a state's *image signature*
        is then the union of its slots' signatures (one
        :func:`union_selected` per state), and each distinct signature
        is materialised *once*, directly from its bits -- every bit
        names one output row, so no state-level ``mapping.apply`` runs
        at all, and states sharing a signature share one image object.
        """
        from repro.kernel.bulkops import (
            StrideTicker,
            chunked_union_tables,
            union_selected_chunked,
        )
        from repro.relational.relations import Relation

        mapping = self.mapping
        assignment = space.assignment
        arities = self.base_schema.arities()
        empty = {
            name: Relation((), arity) for name, arity in arities.items()
        }
        # One single-row probe per codec slot; the output rows of each
        # probe index a shared signature space (bit -> one output row).
        signature_index: Dict[Tuple[str, Tuple], int] = {}
        bit_rows: list = []
        slot_signatures = []
        arity_of = mapping.target_arities()
        target_names = tuple(arity_of)
        ticker = StrideTicker()
        for name, row in space.codec.slots:
            ticker.tick()
            probe = DatabaseInstance(
                {**empty, name: Relation((row,), arities[name])}
            )
            image = mapping.apply(probe, assignment)
            signature = 0
            for target in target_names:
                for out_row in image.relation(target).rows:
                    key = (target, out_row)
                    index = signature_index.get(key)
                    if index is None:
                        index = len(signature_index)
                        signature_index[key] = index
                        bit_rows.append(key)
                    signature |= 1 << index
            slot_signatures.append(signature)

        def materialise(signature: int) -> DatabaseInstance:
            rows_by_target: Dict[str, list] = {
                name: [] for name in target_names
            }
            probe = signature
            while probe:  # reprolint: holds-guard -- bounded by the
                # signature popcount; the per-state loop is stride-ticked
                low = probe & -probe
                probe ^= low
                target, out_row = bit_rows[low.bit_length() - 1]
                rows_by_target[target].append(out_row)
            return DatabaseInstance(
                {
                    name: Relation(rows_by_target[name], arity_of[name])
                    for name in target_names
                }
            )

        tables = chunked_union_tables(slot_signatures)
        images: Dict[int, DatabaseInstance] = {}
        table = []
        for mask in space.masks:
            ticker.tick()
            signature = union_selected_chunked(tables, mask)
            image = images.get(signature)
            if image is None:
                image = materialise(signature)
                images[signature] = image
            table.append(image)
        ticker.flush()
        return tuple(table)

    def image_states(self, space: StateSpace) -> Tuple[DatabaseInstance, ...]:
        """The distinct view states, deterministically ordered."""
        return sorted_instances(set(self.image_table(space)))

    def kernel(self, space: StateSpace) -> Partition:
        """``Pi(Gamma) = ker(gamma')`` as a partition of the states."""

        def build() -> Partition:
            table = self.image_table(space)
            return Partition.from_kernel(
                space.states, lambda s: table[space.index(s)]
            )

        return space.derived(
            ("kernel", self.fingerprint(), kernel_mode()), build
        )

    def preimage_index(
        self, space: StateSpace
    ) -> Dict[DatabaseInstance, Tuple[DatabaseInstance, ...]]:
        """The full fibre index ``view state -> (gamma')^{-1}``.

        This is the tabulated inverse that every update strategy walks;
        memoized on the space, so independent strategies over the same
        view and space share one table.
        """

        def build() -> Dict[DatabaseInstance, Tuple[DatabaseInstance, ...]]:
            fibres: Dict[DatabaseInstance, list] = {}
            for state, image in zip(space.states, self.image_table(space)):
                fibres.setdefault(image, []).append(state)
            return {image: tuple(states) for image, states in fibres.items()}

        return space.derived(
            ("fibres", self.fingerprint(), kernel_mode()), build
        )

    def preimages(
        self, space: StateSpace, view_state: DatabaseInstance
    ) -> Tuple[DatabaseInstance, ...]:
        """All base states mapping to *view_state* (memoized per space)."""
        return self.preimage_index(space).get(view_state, ())

    # -- surjectivity (the paper's standing assumption, §1.1) ----------------------

    def is_surjective_onto(
        self, space: StateSpace, view_space: StateSpace
    ) -> bool:
        """True iff the image is all of the given view state space."""
        return set(self.image_table(space)) == set(view_space.states)

    def surjectivity_gap(
        self, space: StateSpace, view_space: StateSpace
    ) -> Tuple[DatabaseInstance, ...]:
        """View states not in the image -- the states whose absence of a
        reflection Example 1.1.1 demonstrates."""
        image = set(self.image_table(space))
        return tuple(t for t in view_space.states if t not in image)

    def check_surjective(
        self, space: StateSpace, view_space: StateSpace
    ) -> None:
        """Raise :class:`~repro.errors.NotSurjectiveError` with the gap."""
        gap = self.surjectivity_gap(space, view_space)
        if gap:
            raise NotSurjectiveError(
                f"view {self.name!r} misses {len(gap)} view state(s); "
                "add the implied constraints to the view schema"
            )

    def view_space(self, space: StateSpace) -> StateSpace:
        """The image as a state space of the view schema.

        When ``view_schema`` is ``None`` a constraint-free image schema
        is fabricated; either way the returned space's states are
        exactly the image (so surjectivity holds by construction, as the
        paper assumes after §1.1).
        """
        schema = self.view_schema
        if schema is None:
            from repro.relational.schema import RelationSchema

            arities = self.mapping.target_arities()
            schema = Schema(
                name=f"{self.name}.image",
                relations=tuple(
                    RelationSchema(
                        name,
                        tuple(f"c{i}" for i in range(arity)),
                    )
                    for name, arity in sorted(arities.items())
                ),
                enforce_column_types=False,
            )
        return StateSpace.from_states(
            schema, space.assignment, self.image_states(space), validate=False
        )


def identity_view(schema: Schema, name: str = "1_D") -> View:
    """The identity view ``1_D = (D, 1)`` -- a join complement of every
    view, under which only the identity update is possible (§1.3)."""
    return View(name, schema, schema, IdentityMapping(schema))


def zero_view(schema: Schema, name: str = "0_D") -> View:
    """The zero view ``0_D`` -- no relations, kernel indiscrete (§2.2)."""
    zero_schema = Schema(name="zero", relations=(), enforce_column_types=False)
    return View(name, schema, zero_schema, ZeroMapping())
