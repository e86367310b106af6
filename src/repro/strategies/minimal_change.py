"""Minimal-change update strategies (the [Kell82]-style baseline).

The intuition "reflect a view update with the smallest base change" is
espoused in the related work the paper discusses (§1.2).  Two strategies
implement it:

* :class:`MinimalChangeStrategy` -- return the (inclusion-)minimal
  solution when one exists; when none does, either reject
  (``tie_break="reject"``) or fall back to a deterministic
  cardinality-minimal nonextraneous pick (``tie_break="pick"``).
* :class:`NonextraneousPickStrategy` -- always return *some*
  nonextraneous solution, chosen deterministically.

Both satisfy Requirement 1 (nonextraneousness) by construction.  The
paper's Examples 1.2.7 and 1.2.10 show -- and experiments E4/E5 verify
on these implementations -- that they fail functoriality and symmetry
respectively, which is precisely the motivation for the
constant-component-complement approach.
"""

from __future__ import annotations

from typing import Literal, Tuple

from repro.errors import UpdateRejected
from repro.relational.enumeration import StateSpace
from repro.relational.instances import DatabaseInstance
from repro.core.admissibility import (
    minimal_solution,
    nonextraneous_solutions,
)
from repro.core.update import UpdateStrategy
from repro.views.view import View


def _deterministic_pick(current, candidates):
    """Smallest change-set cardinality, ties broken lexicographically."""
    return min(
        candidates,
        key=lambda s: (current.delta_size(s), repr(s)),
    )


class _FibreStrategy(UpdateStrategy):
    """Shared plumbing: the solutions of a request are the target's fibre
    in the view's preimage index, memoized on the space."""

    def solutions_for(
        self, target: DatabaseInstance
    ) -> Tuple[DatabaseInstance, ...]:
        return self.view.preimages(self.space, target)


class MinimalChangeStrategy(_FibreStrategy):
    """Pick the minimal solution; configurable behaviour when none exists."""

    def __init__(
        self,
        view: View,
        space: StateSpace,
        tie_break: Literal["reject", "pick"] = "reject",
    ):
        super().__init__(view, space)
        if tie_break not in ("reject", "pick"):
            # reprolint: disable=RL001 -- argument validation of the metric name; asserted by tests/strategies/test_minimal_change.py
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.tie_break = tie_break

    def apply(
        self, state: DatabaseInstance, target: DatabaseInstance
    ) -> DatabaseInstance:
        solutions = self.solutions_for(target)
        minimal = minimal_solution(
            self.view, self.space, state, target, solutions=solutions
        )
        if minimal is not None:
            return minimal
        candidates = nonextraneous_solutions(
            self.view, self.space, state, target, solutions=solutions
        )
        if not candidates:
            raise UpdateRejected(
                f"no solution for target {target!r}", reason="no-solution"
            )
        if self.tie_break == "reject":
            raise UpdateRejected(
                f"{len(candidates)} incomparable nonextraneous solutions; "
                "no minimal one exists",
                reason="no-minimal",
            )
        return _deterministic_pick(state, candidates)


class NonextraneousPickStrategy(_FibreStrategy):
    """Always return a deterministically chosen nonextraneous solution."""

    def apply(
        self, state: DatabaseInstance, target: DatabaseInstance
    ) -> DatabaseInstance:
        candidates = nonextraneous_solutions(
            self.view,
            self.space,
            state,
            target,
            solutions=self.solutions_for(target),
        )
        if not candidates:
            raise UpdateRejected(
                f"no solution for target {target!r}", reason="no-solution"
            )
        return _deterministic_pick(state, candidates)
