"""Exhaustive solution enumeration: the semantic ground truth.

For a view update request, :class:`SolutionEnumerator` lists every base
state achieving the target view state, classifies each as extraneous /
nonextraneous / minimal (Definition 1.2.4), and reports the statistics
the paper's examples turn on: *is there a minimal solution at all?*
(Example 1.2.5: not always), *how many nonextraneous solutions are
there?* (more than one exactly when no minimal one exists).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.relational.enumeration import StateSpace
from repro.relational.instances import DatabaseInstance
from repro.core.admissibility import (
    minimal_solution,
    nonextraneous_solutions,
)
from repro.views.view import View


@dataclass(frozen=True)
class SolutionReport:
    """Everything known about the solutions of one update request."""

    current: DatabaseInstance
    target: DatabaseInstance
    solutions: Tuple[DatabaseInstance, ...]
    nonextraneous: Tuple[DatabaseInstance, ...]
    minimal: Optional[DatabaseInstance]

    @property
    def solvable(self) -> bool:
        """At least one solution exists (surjectivity guarantees this
        for legal target view states)."""
        return bool(self.solutions)

    @property
    def has_minimal(self) -> bool:
        """A minimal solution exists."""
        return self.minimal is not None

    @property
    def extraneous_count(self) -> int:
        """Number of solutions that are extraneous."""
        return len(self.solutions) - len(self.nonextraneous)


class SolutionEnumerator:
    """Enumerate and classify all solutions of view update requests.

    The full fibre index ``view state -> preimages`` is the view's
    :meth:`~repro.views.view.View.preimage_index`, memoized on the
    space, so enumerators and strategies over the same view and space
    -- across experiments and sessions -- share one tabulated inverse.
    """

    def __init__(self, view: View, space: StateSpace):
        self.view = view
        self.space = space

    def solutions_for(
        self, target: DatabaseInstance
    ) -> Tuple[DatabaseInstance, ...]:
        """All base states achieving *target* (memoized on the space)."""
        return self.view.preimages(self.space, target)

    def report(
        self, current: DatabaseInstance, target: DatabaseInstance
    ) -> SolutionReport:
        """Full classification for one request."""
        solutions = self.solutions_for(target)
        nonextraneous = nonextraneous_solutions(
            self.view, self.space, current, target, solutions=solutions
        )
        minimal = minimal_solution(
            self.view, self.space, current, target, solutions=solutions
        )
        return SolutionReport(
            current=current,
            target=target,
            solutions=solutions,
            nonextraneous=nonextraneous,
            minimal=minimal,
        )

    def requests_without_minimal(
        self,
    ) -> Tuple[Tuple[DatabaseInstance, DatabaseInstance], ...]:
        """All (current, target) requests with no minimal solution.

        Example 1.2.5's phenomenon; non-empty output demonstrates that
        "always pick the minimal solution" is not a total strategy.
        """
        found = []
        targets = self.view.image_states(self.space)
        for current in self.space.states:
            for target in targets:
                report = self.report(current, target)
                if report.solvable and not report.has_minimal:
                    found.append((current, target))
        return tuple(found)
