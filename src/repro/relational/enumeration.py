"""Enumeration of ``LDB(D, mu)``: the finite state space of a schema.

All of the paper's analyses -- kernels and the partition lattice (§2.2),
strongness (§2.3), complements, translation tables -- are questions about
the set of legal databases under relation-by-relation inclusion.  Over a
finite type assignment that set is finite, and :class:`StateSpace`
materialises it together with its ⊥-poset structure.

Enumeration is exponential by nature (it is a powerset construction);
two mitigations keep it practical for the paper-scale universes used
throughout the library:

* **per-relation pruning** -- constraints mentioning a single relation
  (FDs, JDs, typed columns, single-relation TGDs) filter that relation's
  subsets *before* the cross product is formed;
* **generator-provided states** -- schemas with a known closed form for
  their legal states (e.g. the null-padded chain schemas of
  :mod:`repro.decomposition`) build a :class:`StateSpace` directly via
  :meth:`StateSpace.from_states`, skipping enumeration entirely.

A ``max_candidates`` budget guards against accidental blow-up.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.engine.fingerprint import stable_fingerprint
from repro.errors import (
    EnumerationError,
    IllegalInstanceError,
    StateSpaceTooLargeError,
)
from repro.algebra.poset import FinitePoset
from repro.kernel.bitspace import TupleCodec
from repro.kernel.config import bulk_enabled
from repro.kernel.enumfast import legal_subset_masks
from repro.relational.constraints import (
    Constraint,
    EqualityGeneratingDependency,
    FunctionalDependency,
    InclusionDependency,
    JoinDependency,
    TupleGeneratingDependency,
    TypedColumnsConstraint,
)
from repro.relational.instances import DatabaseInstance, sorted_instances
from repro.relational.relations import Relation
from repro.relational.schema import Schema
from repro.resilience.faults import current_plan
from repro.resilience.guard import current_guard
from repro.typealgebra.assignment import TypeAssignment

_T = TypeVar("_T")


def constraint_relations(constraint: Constraint) -> Optional[FrozenSet[str]]:
    """The relations a constraint mentions, or ``None`` if unknown.

    Used to classify constraints as per-relation (prunable) vs global.
    """
    if isinstance(
        constraint, (FunctionalDependency, JoinDependency, TypedColumnsConstraint)
    ):
        return frozenset({constraint.relation})
    if isinstance(constraint, InclusionDependency):
        return frozenset({constraint.source, constraint.target})
    if isinstance(constraint, TupleGeneratingDependency):
        return frozenset(
            name for name, _ in constraint.body + constraint.head
        )
    if isinstance(constraint, EqualityGeneratingDependency):
        return frozenset(name for name, _ in constraint.body)
    return None


def tuple_universe(
    schema: Schema, relation: str, assignment: TypeAssignment
) -> Tuple[Tuple[object, ...], ...]:
    """All tuples a relation could contain, per its column types."""
    rel_schema = schema.relation(relation)
    column_values = [
        assignment.sorted_extension(t)
        for t in rel_schema.effective_column_types()
    ]
    return tuple(itertools.product(*column_values))


def _subsets(rows: Tuple[Tuple[object, ...], ...]) -> Iterator[FrozenSet]:
    # reprolint: disable=RL002 -- lazy generator: every consumer is the
    # naive relation_choices loop, which ticks per yielded subset
    for mask in range(1 << len(rows)):
        subset = frozenset(
            rows[i] for i in range(len(rows)) if mask & (1 << i)
        )
        yield subset


def enumerate_instances(
    schema: Schema,
    assignment: TypeAssignment,
    max_candidates: int = 1 << 22,
    prune: bool = True,
) -> Iterator[DatabaseInstance]:
    """Yield every instance of ``LDB(D, mu)``.

    With *prune* (default), per-relation constraints filter each
    relation's subsets before the cross product; global constraints are
    checked on the assembled candidates.  Without it, every candidate in
    the full cross product is checked against every constraint -- the
    naive baseline measured by benchmark S4.

    Raises :class:`~repro.errors.StateSpaceTooLargeError` if the number
    of candidate instances exceeds *max_candidates*.
    """
    universes = {
        rel.name: tuple_universe(schema, rel.name, assignment)
        for rel in schema.relations
    }
    candidate_count = 1
    # reprolint: disable=RL002 -- bounded by the schema's relation count
    for name, rows in universes.items():
        subset_count = 1 << len(rows)
        # Even with pruning, every relation's subset loop iterates
        # 2^|universe| candidates before any filtering can discard one,
        # so the budget must bound each relation individually.
        if subset_count > max_candidates:
            raise StateSpaceTooLargeError(
                f"{subset_count} candidate subsets for relation {name!r} "
                f"of schema {schema.name!r} exceed the budget of "
                f"{max_candidates}"
            )
        candidate_count *= subset_count
        if candidate_count > max_candidates and not prune:
            raise StateSpaceTooLargeError(
                f"{candidate_count}+ candidate instances of schema "
                f"{schema.name!r} exceed the budget of {max_candidates}"
            )

    all_constraints = schema.all_constraints()
    if prune:
        per_relation: Dict[str, List[Constraint]] = {
            rel.name: [] for rel in schema.relations
        }
        global_constraints: List[Constraint] = []
        # reprolint: disable=RL002 -- bounded by the declared constraints
        for constraint in all_constraints:
            relations = constraint_relations(constraint)
            if relations is not None and len(relations) == 1:
                per_relation[next(iter(relations))].append(constraint)
            else:
                global_constraints.append(constraint)
    else:
        per_relation = {rel.name: [] for rel in schema.relations}
        global_constraints = list(all_constraints)

    names = [rel.name for rel in schema.relations]
    arities = schema.arities()

    use_masks = bulk_enabled()

    def relation_choices(name: str) -> List[Relation]:
        choices = []
        singleton_constraints = per_relation[name]
        rows = universes[name]
        arity = arities[name]
        if use_masks:
            # Constraints compiled once to mask predicates; legal masks
            # arrive in ascending numeric order, matching `_subsets`.
            row_count = len(rows)
            # reprolint: disable=RL002 -- legal_subset_masks ticks (and
            # fault-checks) once per candidate inside the generator
            for mask in legal_subset_masks(
                schema, assignment, name, rows, singleton_constraints
            ):
                subset = [
                    rows[i] for i in range(row_count) if (mask >> i) & 1
                ]
                choices.append(Relation(subset, arity))
            return choices
        other_empty = {
            other: Relation((), arities[other]) for other in names
        }
        guard = current_guard()
        plan = current_plan()
        for subset in _subsets(rows):
            if guard is not None:
                guard.tick()
            if plan is not None:
                plan.check("enumeration.step")
            relation = Relation(subset, arity)
            if singleton_constraints:
                probe = DatabaseInstance({**other_empty, name: relation})
                if not all(
                    c.holds(probe, schema, assignment)
                    for c in singleton_constraints
                ):
                    continue
            choices.append(relation)
        return choices

    choice_lists = [relation_choices(name) for name in names]
    pruned_count = 1
    # reprolint: disable=RL002 -- bounded by the schema's relation count
    for choices in choice_lists:
        pruned_count *= len(choices)
    if pruned_count > max_candidates:
        raise StateSpaceTooLargeError(
            f"{pruned_count} candidate instances of schema "
            f"{schema.name!r} (after pruning) exceed the budget of "
            f"{max_candidates}"
        )

    guard = current_guard()
    plan = current_plan()
    for combo in itertools.product(*choice_lists):
        if guard is not None:
            guard.tick()
        if plan is not None:
            plan.check("enumeration.step")
        instance = DatabaseInstance(dict(zip(names, combo)))
        if all(
            c.holds(instance, schema, assignment) for c in global_constraints
        ):
            yield instance


class StateSpace:
    """The enumerated set ``LDB(D, mu)`` with its ⊥-poset structure.

    Construct via :meth:`enumerate` (generic, powerset-based) or
    :meth:`from_states` (caller-supplied states, e.g. from a closed-form
    generator).  States are kept in a deterministic order; the poset is
    built lazily on first use, and so is every table memoized through
    :meth:`derived`.
    """

    __slots__ = (
        "schema",
        "assignment",
        "_states",
        "_index",
        "_poset",
        "_codec",
        "_masks",
        "_fingerprint",
        "_derived",
    )

    def __init__(
        self,
        schema: Schema,
        assignment: TypeAssignment,
        states: Iterable[DatabaseInstance],
    ):
        self.schema = schema
        self.assignment = assignment
        self._states: Tuple[DatabaseInstance, ...] = sorted_instances(states)
        if not self._states:
            raise EnumerationError("state space is empty")
        self._index: Dict[DatabaseInstance, int] = {
            s: i for i, s in enumerate(self._states)
        }
        if len(self._index) != len(self._states):
            raise EnumerationError("duplicate states supplied")
        self._poset: Optional[FinitePoset] = None
        self._codec: Optional[TupleCodec] = None
        self._masks: Optional[Tuple[int, ...]] = None
        self._fingerprint: Optional[str] = None
        self._derived: Dict[Hashable, Any] = {}

    @classmethod
    def enumerate(
        cls,
        schema: Schema,
        assignment: TypeAssignment,
        max_candidates: int = 1 << 22,
        prune: bool = True,
    ) -> "StateSpace":
        """Enumerate ``LDB(D, mu)`` (see :func:`enumerate_instances`)."""
        states = tuple(
            enumerate_instances(schema, assignment, max_candidates, prune)
        )
        return cls(schema, assignment, states)

    @classmethod
    def from_states(
        cls,
        schema: Schema,
        assignment: TypeAssignment,
        states: Iterable[DatabaseInstance],
        validate: bool = True,
    ) -> "StateSpace":
        """Wrap caller-supplied states; optionally re-check legality."""
        states = tuple(states)
        if validate:
            guard = current_guard()
            for state in states:
                if guard is not None:
                    guard.tick()
                if not schema.is_legal(state, assignment):
                    raise IllegalInstanceError(
                        f"supplied state is not legal: {state!r}"
                    )
        return cls(schema, assignment, states)

    # -- container protocol ------------------------------------------------------

    @property
    def states(self) -> Tuple[DatabaseInstance, ...]:
        """All legal states, deterministically ordered."""
        return self._states

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[DatabaseInstance]:
        return iter(self._states)

    def __contains__(self, state: object) -> bool:
        return state in self._index

    def index(self, state: DatabaseInstance) -> int:
        """Index of a state (raises ``KeyError`` if not legal/present)."""
        return self._index[state]

    # -- mask encoding -------------------------------------------------------------

    @property
    def codec(self) -> TupleCodec:
        """The tuple codec over the rows observed across all states.

        Built from the states themselves (not the typed universe) so it
        also covers generator-built spaces whose rows may fall outside
        any typed universe.
        """
        if self._codec is None:
            self._codec = TupleCodec.from_instances(self._states)
        return self._codec

    @property
    def masks(self) -> Tuple[int, ...]:
        """Per-state bitmasks under :attr:`codec`, in state order."""
        if self._masks is None:
            self._masks = self.codec.encode_all(self._states)
        return self._masks

    # -- poset structure -----------------------------------------------------------

    @property
    def poset(self) -> FinitePoset:
        """The ⊥-poset of states under relation-wise inclusion."""
        if self._poset is None:
            self._poset = (
                FinitePoset.from_masks(self._states, self.masks)
                if bulk_enabled()
                else FinitePoset.from_leq(
                    self._states, lambda a, b: a.issubset(b)
                )
            )
        return self._poset

    def leq(self, low: DatabaseInstance, high: DatabaseInstance) -> bool:
        """Relation-wise inclusion between two states."""
        return low.issubset(high)

    def bottom(self) -> DatabaseInstance:
        """The least state; the null model when the schema has the
        null model property."""
        return self.poset.bottom()

    def has_null_model(self) -> bool:
        """True iff the empty instance is a state."""
        return self.schema.empty_instance() in self._index

    def join(
        self, a: DatabaseInstance, b: DatabaseInstance
    ) -> Optional[DatabaseInstance]:
        """Least upper bound within the state space, or ``None``.

        Fast path: if the relation-wise union is itself legal it is the
        join; otherwise fall back to the poset search.
        """
        union = a.union(b)
        if union in self._index:
            return union
        return self.poset.join(a, b)

    def meet(
        self, a: DatabaseInstance, b: DatabaseInstance
    ) -> Optional[DatabaseInstance]:
        """Greatest lower bound within the state space, or ``None``."""
        intersection = a.intersection(b)
        if intersection in self._index:
            return intersection
        return self.poset.meet(a, b)

    # -- tables derived from the states --------------------------------------------

    def derived(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The value memoized on this space under *key*, built on first use.

        The per-view tables -- a view's image, kernel and fibres (see
        :class:`~repro.views.view.View`) -- live here under keys their
        owner chooses, so they are freed with the space and never
        pickled with it.  *build* must not return ``None``.  Concurrent
        first uses may both build; the first value stored is the one
        every caller gets.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived.setdefault(key, build())
        return value

    # -- identity ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of ``(D, mu, LDB(D, mu))`` (memoized).

        Hashing the states themselves (not just the schema and
        assignment) keeps generator-built spaces honest: two spaces over
        the same schema but different supplied state sets differ.
        """
        if self._fingerprint is None:
            self._fingerprint = stable_fingerprint(
                "StateSpace", self.schema, self.assignment, self._states
            )
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateSpace):
            return NotImplemented
        if self is other:
            return True
        return self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    # -- pickling ------------------------------------------------------------------
    #
    # Lazy derived structure (poset, codec, masks, the derived tables) is
    # rebuilt on demand; the memoized fingerprint is dropped because
    # spaces over schemas with transient mappings are only
    # fingerprintable in-process.

    def __getstate__(self):
        return (self.schema, self.assignment, self._states)

    def __setstate__(self, state) -> None:
        schema, assignment, states = state
        self.__init__(schema, assignment, states)

    def __repr__(self) -> str:
        return (
            f"StateSpace({self.schema.name!r}, {len(self._states)} states)"
        )
