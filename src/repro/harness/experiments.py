"""Experiments E1-E12: every paper example/theorem, run and judged.

Each ``experiment_eNN`` function builds the relevant universe from
:mod:`repro.workloads.scenarios`, reproduces the paper's construction,
and returns an :class:`ExperimentResult` recording the paper's claim,
the measured observations, and whether they match.  ``run_all`` powers
both ``python -m repro.harness`` and the regeneration of
``EXPERIMENTS.md``; the ``benchmarks/`` suite times the interesting
kernels of each experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.engine import Engine, current_engine
from repro.errors import UpdateRejected
from repro.relational.constraints import JoinDependency
from repro.relational.instances import DatabaseInstance
from repro.typealgebra.algebra import NULL
from repro.core.admissibility import (
    analyze_admissibility,
    find_functoriality_violation,
    find_symmetry_violation,
)
from repro.core.constant_complement import (
    ComponentTranslator,
    ConstantComplementTranslator,
    translators_agree,
)
from repro.core.procedure import (
    UpdateProcedure,
    strong_join_complements,
    translations_coincide,
)
from repro.decomposition.projections import projection_view
from repro.strategies.exhaustive import SolutionEnumerator
from repro.strategies.minimal_change import MinimalChangeStrategy
from repro.views.lattice import are_complementary, are_join_complements
from repro.workloads.scenarios import (
    abcd_chain_paper,
    abcd_chain_small,
    paper_chain_instance,
    spj_inverse_scenario,
    spj_mini_scenario,
    spj_paper_instance,
    two_unary_scenario,
)


def render_observation(value: object) -> str:
    """*value* as the report prints it: ``str(value)``, but a set's
    members in sorted order, so the report does not change with the
    per-process string hash."""
    if isinstance(value, (set, frozenset)) and value:
        members = "{" + ", ".join(sorted(map(repr, value))) + "}"
        return members if isinstance(value, set) else f"frozenset({members})"
    return str(value)


@dataclass
class ExperimentResult:
    """Outcome of one experiment."""

    experiment_id: str
    title: str
    paper_claim: str
    observations: List[Tuple[str, object]] = field(default_factory=list)
    passed: bool = True

    def observe(self, key: str, value: object) -> None:
        """Record one observation."""
        self.observations.append((key, value))

    def expect(self, key: str, value: object, expected: object) -> None:
        """Record an observation that must equal *expected*."""
        self.observations.append((key, value))
        if value != expected:
            self.passed = False
            self.observations.append((f"{key} EXPECTED", expected))

    def summary(self) -> str:
        """Multi-line human-readable report."""
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"[{self.experiment_id}] {self.title} -- {status}",
            f"  claim: {self.paper_claim}",
        ]
        for key, value in self.observations:
            lines.append(f"  {key}: {render_observation(value)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# E1: Example 1.1.1 -- surjectivity and side effects
# ---------------------------------------------------------------------------


def experiment_e1() -> ExperimentResult:
    """Side effects under the join view; the implied JD restores surjectivity."""
    result = ExperimentResult(
        "E1",
        "Surjectivity problem (Example 1.1.1)",
        "Inserting (s3,p3,j3) into the join view has no exact reflection; "
        "the naive reflection side-effects (s3,p3,j1) and (s2,p3,j3); the "
        "implied constraint ⋈[SP,PJ] excludes the bad target state",
    )
    scenario, instance = spj_paper_instance()
    assignment = scenario.assignment
    view_state = scenario.join_view.apply(instance, assignment)
    target = view_state.inserting("R_SPJ", ("s3", "p3", "j3"))
    jd = JoinDependency("R_SPJ", (("S", "P"), ("P", "J")))
    result.expect(
        "target satisfies ⋈[SP,PJ]",
        jd.holds(target, scenario.view_schema_with_jd, assignment),
        False,
    )
    result.expect(
        "target legal in plain view schema",
        scenario.view_schema_plain.is_legal(target, assignment),
        True,
    )
    result.expect(
        "target legal in JD-constrained view schema",
        scenario.view_schema_with_jd.is_legal(target, assignment),
        False,
    )
    naive = instance.inserting("R_SP", ("s3", "p3")).inserting(
        "R_PJ", ("p3", "j3")
    )
    achieved = scenario.join_view.apply(naive, assignment)
    side_effects = achieved.relation("R_SPJ").rows - target.relation(
        "R_SPJ"
    ).rows
    result.expect(
        "side-effect tuples",
        side_effects,
        frozenset({("s3", "p3", "j1"), ("s2", "p3", "j3")}),
    )
    return result


# ---------------------------------------------------------------------------
# E2: Example 1.2.1 -- extraneous updates
# ---------------------------------------------------------------------------


def experiment_e2() -> ExperimentResult:
    """Deleting (s1,p1,j1): removing (p1,j1) suffices; also removing
    (p4,j3) is extraneous."""
    result = ExperimentResult(
        "E2",
        "Extraneous updates (Example 1.2.1)",
        "Removing (p1,j1) achieves the deletion; additionally removing "
        "(p4,j3) yields the same view state through a strictly larger "
        "change-set (an extraneous update)",
    )
    scenario, instance = spj_paper_instance()
    assignment = scenario.assignment
    view_state = scenario.join_view.apply(instance, assignment)
    target = view_state.deleting("R_SPJ", ("s1", "p1", "j1"))
    lean = instance.deleting("R_PJ", ("p1", "j1"))
    fat = lean.deleting("R_PJ", ("p4", "j3"))
    result.expect(
        "lean reflection achieves target",
        scenario.join_view.apply(lean, assignment) == target,
        True,
    )
    result.expect(
        "fat reflection achieves target",
        scenario.join_view.apply(fat, assignment) == target,
        True,
    )
    lean_delta = instance.delta(lean)
    fat_delta = instance.delta(fat)
    result.expect(
        "lean change-set strictly inside fat change-set",
        lean_delta.issubset(fat_delta) and lean_delta != fat_delta,
        True,
    )
    return result


# ---------------------------------------------------------------------------
# E3: Example 1.2.5 -- no minimal solution
# ---------------------------------------------------------------------------


def experiment_e3() -> ExperimentResult:
    """Inserting (s3,p1) into π_SP: several incomparable nonextraneous
    solutions, hence no minimal one."""
    result = ExperimentResult(
        "E3",
        "No minimal solution (Example 1.2.5)",
        "Inserting (s3,p1) into the SP projection of the ⋈[SP,PJ] schema "
        "admits >= 2 incomparable nonextraneous solutions and no minimal "
        "solution",
    )
    scenario = spj_inverse_scenario()
    enumerator = SolutionEnumerator(scenario.sp_view, scenario.space)
    current_view = scenario.sp_view.apply(scenario.initial, scenario.assignment)
    target = current_view.inserting("R_SP", ("s3", "p1"))
    report = enumerator.report(scenario.initial, target)
    result.observe("solutions", len(report.solutions))
    result.expect(
        "nonextraneous solutions >= 2", len(report.nonextraneous) >= 2, True
    )
    result.expect("minimal solution exists", report.has_minimal, False)
    # The two reflections the paper names:
    both = scenario.initial.inserting(
        "R_SPJ", ("s3", "p1", "j1")
    ).inserting("R_SPJ", ("s3", "p1", "j2"))
    swap = scenario.initial.inserting("R_SPJ", ("s3", "p1", "j1")).deleting(
        "R_SPJ", ("s1", "p1", "j2")
    ).deleting("R_SPJ", ("s3", "p1", "j2"))
    result.expect(
        "paper's 'insert both' reflection is nonextraneous",
        both in report.nonextraneous,
        True,
    )
    return result


# ---------------------------------------------------------------------------
# E4: Example 1.2.7 -- minimal-change is not functorial
# ---------------------------------------------------------------------------


def experiment_e4() -> ExperimentResult:
    """Minimal-change reflection violates the composition law."""
    result = ExperimentResult(
        "E4",
        "Functoriality failure of minimal change (Example 1.2.7)",
        "Reflecting a view replacement minimally and then reverting does "
        "not restore the original base state: the minimal-change strategy "
        "is not functorial",
    )
    scenario = spj_mini_scenario()
    strategy = MinimalChangeStrategy(
        scenario.join_view, scenario.space, tie_break="pick"
    )
    violation = find_functoriality_violation(strategy)
    result.expect("composition-law violation found", violation is not None, True)
    if violation:
        result.observe("first violation", violation[:160] + "...")
    return result


# ---------------------------------------------------------------------------
# E5: Example 1.2.10 -- minimal-only strategies are not symmetric
# ---------------------------------------------------------------------------


def experiment_e5() -> ExperimentResult:
    """A strategy allowing only minimal reflections cannot undo inserts."""
    result = ExperimentResult(
        "E5",
        "Symmetry failure (Example 1.2.10)",
        "A strategy that performs an insertion minimally but only allows "
        "updates with minimal reflections cannot undo the insertion "
        "(deletions have two incomparable nonextraneous reflections)",
    )
    scenario = spj_mini_scenario()
    strategy = MinimalChangeStrategy(
        scenario.join_view, scenario.space, tie_break="reject"
    )
    violation = find_symmetry_violation(strategy)
    result.expect("un-undoable update found", violation is not None, True)
    if violation:
        result.observe("first violation", violation[:160] + "...")
    return result


# ---------------------------------------------------------------------------
# E6: Example 1.2.12 -- allowance depends on invisible information
# ---------------------------------------------------------------------------


def experiment_e6() -> ExperimentResult:
    """Constant-complement deletion allowed or not depending on base data
    invisible in the view."""
    result = ExperimentResult(
        "E6",
        "State dependence (Example 1.2.12)",
        "Deleting (s2,p2) from π_SP with π_PJ constant is impossible in "
        "the paper's first instance but possible in the second; whether "
        "the view user may delete a tuple depends on data not visible in "
        "the view",
    )
    scenario = spj_inverse_scenario()
    translator = ConstantComplementTranslator(
        scenario.sp_view, scenario.pj_view, scenario.space
    )
    assignment = scenario.assignment
    first = DatabaseInstance(
        {
            "R_SPJ": {
                ("s1", "p1", "j1"),
                ("s1", "p1", "j2"),
                ("s2", "p2", "j1"),
            }
        }
    )
    second = first.inserting("R_SPJ", ("s1", "p2", "j1"))
    for label, state in (("first", first), ("second", second)):
        view_state = scenario.sp_view.apply(state, assignment)
        target = view_state.deleting("R_SP", ("s2", "p2"))
        allowed = translator.defined(state, target)
        result.expect(
            f"{label} instance: delete (s2,p2) allowed",
            allowed,
            label == "second",
        )
    return result


# ---------------------------------------------------------------------------
# E7: Example 1.3.6 -- complement non-uniqueness; strong views stand out
# ---------------------------------------------------------------------------


def experiment_e7() -> ExperimentResult:
    """Three mutually complementary views; only two are strong; the
    boolean-function family contains exactly four join complements of
    Gamma1, exactly one of them strong."""
    result = ExperimentResult(
        "E7",
        "Complement non-uniqueness (Example 1.3.6)",
        "Gamma1, Gamma2, Gamma3 are pairwise complementary (so minimal "
        "complements are not unique); Gamma1 and Gamma2 are strong views, "
        "Gamma3 is not",
    )
    scenario = two_unary_scenario()
    space = scenario.space
    pairs = (
        ("Γ1,Γ2", scenario.gamma1, scenario.gamma2),
        ("Γ1,Γ3", scenario.gamma1, scenario.gamma3),
        ("Γ2,Γ3", scenario.gamma2, scenario.gamma3),
    )
    for label, left, right in pairs:
        result.expect(
            f"{label} complementary",
            are_complementary(left, right, space),
            True,
        )
    for view, expected in (
        (scenario.gamma1, True),
        (scenario.gamma2, True),
        (scenario.gamma3, False),
    ):
        result.expect(
            f"{view.name} strong",
            current_engine().analysis(view, space).is_strong,
            expected,
        )
    family = scenario.boolean_function_views()
    join_complements = [
        name
        for name, view in family.items()
        if are_join_complements(scenario.gamma1, view, space)
    ]
    strong_complements = [
        name
        for name in join_complements
        if current_engine().analysis(family[name], space).is_strong
    ]
    result.expect(
        "join complements of Γ1 in 16-view family", len(join_complements), 4
    )
    result.expect(
        "of which strong views", len(strong_complements), 1
    )
    return result


# ---------------------------------------------------------------------------
# E8: Examples 2.1.1 / 2.3.4 -- the component algebra of the chain
# ---------------------------------------------------------------------------


def experiment_e8() -> ExperimentResult:
    """The paper instance materialises exactly; the component algebra is
    Boolean with 8 elements, atoms AB/BC/CD, complement of AB = BCD."""
    result = ExperimentResult(
        "E8",
        "Component algebra of the ABCD chain (Examples 2.1.1, 2.3.4)",
        "The π° views are strong; the component algebra is the Boolean "
        "algebra {0, AB, BC, CD, ABC, BCD, AB·CD, 1} generated by the "
        "three edge components; the strong complement of Γ°AB is Γ°BCD",
    )
    paper = abcd_chain_paper()
    instance = paper_chain_instance(paper)
    result.expect(
        "paper instance legal",
        paper.schema.is_legal(instance, paper.assignment),
        True,
    )
    result.expect(
        "paper instance tuple count", instance.total_rows(), 11
    )
    chain = abcd_chain_small()
    space = chain.state_space()
    algebra = current_engine().algebra(space, chain.all_component_views())
    result.expect("algebra size", len(algebra), 8)
    result.expect("algebra is Boolean", algebra.is_boolean(), True)
    result.expect(
        "atoms",
        sorted(c.name for c in algebra.atoms()),
        ["Γ°AB", "Γ°BC", "Γ°CD"],
    )
    ab = algebra.named("Γ°AB")
    result.expect(
        "complement of Γ°AB", algebra.complement_of(ab).name, "Γ°BCD"
    )
    bc = algebra.named("Γ°BC")
    result.expect(
        "complement of Γ°BC", algebra.complement_of(bc).name, "Γ°AB·CD"
    )
    result.expect(
        "generated by the edge components",
        algebra.algebra.generated_by(
            [algebra.named(n).key for n in ("Γ°AB", "Γ°BC", "Γ°CD")]
        ),
        True,
    )
    return result


# ---------------------------------------------------------------------------
# E9: Theorem 3.1.1 -- component updates are always possible and admissible
# ---------------------------------------------------------------------------


def experiment_e9() -> ExperimentResult:
    """Every update to every component, under its strong complement,
    exists uniquely and is admissible -- checked exhaustively."""
    result = ExperimentResult(
        "E9",
        "Admissibility of component updates (Theorem 3.1.1)",
        "For a strongly complemented strong view, every update request "
        "has a unique solution with the complement constant, and the "
        "resulting strategy is admissible (nonextraneous, functorial, "
        "symmetric, state independent)",
    )
    chain = abcd_chain_small()
    space = chain.state_space()
    algebra = current_engine().algebra(space, chain.all_component_views())
    for component in algebra:
        translator = ComponentTranslator.for_component(component, space)
        targets = component.view.image_states(space)
        total = all(
            translator.defined(state, target)
            for state in space.states
            for target in targets
        )
        result.expect(f"{component.name}: all updates possible", total, True)
        report = analyze_admissibility(translator)
        result.expect(
            f"{component.name}: admissible", report.is_admissible, True
        )
        enumerative = ConstantComplementTranslator(
            component.view, component.complement.view, space
        )
        result.expect(
            f"{component.name}: constructive == enumerative",
            translators_agree(enumerative, translator),
            True,
        )
    return result


# ---------------------------------------------------------------------------
# E10: Theorem 3.2.2 -- complement independence
# ---------------------------------------------------------------------------


def experiment_e10() -> ExperimentResult:
    """Reflections agree across strong join complements; an arbitrary
    (non-component) complement can disagree."""
    result = ExperimentResult(
        "E10",
        "Complement independence (Main Update Theorem 3.2.2)",
        "When an update to a view succeeds with two different strong "
        "join complements held constant, the reflected base state is the "
        "same; choosing a complement outside the component algebra can "
        "produce a different (extraneous) reflection",
    )
    chain = abcd_chain_small()
    space = chain.state_space()
    algebra = current_engine().algebra(space, chain.all_component_views())
    gabd = projection_view(chain, ("A", "B", "D"))
    complements = strong_join_complements(gabd, algebra)
    result.expect(
        "strong join complements of Γ_ABD",
        [c.name for c in complements],
        ["Γ°BCD", "Γ°ABCD"],
    )
    result.expect(
        "translations coincide across them",
        translations_coincide(gabd, complements, space),
        True,
    )
    # Contrast: Gamma1 of Example 1.3.6 under Gamma2 vs Gamma3.
    scenario = two_unary_scenario()
    with_g2 = ConstantComplementTranslator(
        scenario.gamma1, scenario.gamma2, scenario.space
    )
    with_g3 = ConstantComplementTranslator(
        scenario.gamma1, scenario.gamma3, scenario.space
    )
    state = scenario.initial
    target = scenario.gamma1.apply(state, scenario.assignment).inserting(
        "R", ("a4",)
    )
    result.expect(
        "Γ2-constant and Γ3-constant reflections differ",
        with_g2.apply(state, target) != with_g3.apply(state, target),
        True,
    )
    return result


# ---------------------------------------------------------------------------
# E11: Example 3.2.4 -- the update procedure accepts/rejects correctly
# ---------------------------------------------------------------------------


def experiment_e11() -> ExperimentResult:
    """Updates to Gamma_ABD filter through Γ°AB: edge deletions pass,
    deleting a (n,n,d) tuple is rejected."""
    result = ExperimentResult(
        "E11",
        "Update Procedure 3.2.3 on Γ_ABD (Example 3.2.4)",
        "The smallest strong join complement of Γ_ABD is Γ°BCD, so "
        "updates filter through Γ°AB: deleting an AB-edge's tuples is "
        "allowed; deleting a (n,n,d) tuple maps to doing nothing in Γ°AB "
        "and is rejected",
    )
    chain = abcd_chain_small()
    space = chain.state_space()
    algebra = current_engine().algebra(space, chain.all_component_views())
    gabd = projection_view(chain, ("A", "B", "D"))
    procedure = UpdateProcedure(gabd, algebra.named("Γ°BCD"), space)
    state = chain.state_from_edges(
        [{("a1", "b1")}, set(), {("c1", "d1")}]
    )
    view_state = gabd.apply(state, chain.assignment)
    result.expect(
        "initial view state",
        view_state.relation("R_ABD").rows,
        frozenset({("a1", "b1", NULL), (NULL, NULL, "d1")}),
    )
    # (a) delete the AB tuple -> allowed (delete the edge via Γ°AB).
    allowed_target = view_state.deleting("R_ABD", ("a1", "b1", NULL))
    solution = procedure.apply(state, allowed_target)
    result.expect(
        "delete (a1,b1,n): accepted; base loses the AB edge",
        chain.edges_of(solution),
        (frozenset(), frozenset(), frozenset({("c1", "d1")})),
    )
    # (b) delete the (n,n,d) tuple -> rejected (no Γ°AB change can do it).
    rejected_target = view_state.deleting("R_ABD", (NULL, NULL, "d1"))
    try:
        procedure.apply(state, rejected_target)
        rejected = False
        reason = ""
    except UpdateRejected as exc:
        rejected = True
        reason = exc.reason
    result.expect("delete (n,n,d1): rejected", rejected, True)
    result.observe("rejection reason", reason)
    return result


# ---------------------------------------------------------------------------
# E12: Example 3.3.1 -- non-strong complements give inadmissible updates
# ---------------------------------------------------------------------------


def experiment_e12() -> ExperimentResult:
    """Updating Gamma1 with constant Gamma3 is extraneous; with constant
    Gamma2 it is admissible."""
    result = ExperimentResult(
        "E12",
        "Non-strong complements misbehave (Example 3.3.1)",
        "Inserting a4 into Γ1 with constant complement Γ3 forces an "
        "extraneous change to S; the same update with constant Γ2 is "
        "minimal, and the Γ2-constant strategy is admissible while the "
        "Γ3-constant one is not",
    )
    scenario = two_unary_scenario()
    space = scenario.space
    with_g2 = ConstantComplementTranslator(
        scenario.gamma1, scenario.gamma2, space
    )
    with_g3 = ConstantComplementTranslator(
        scenario.gamma1, scenario.gamma3, space
    )
    state = scenario.initial
    target = scenario.gamma1.apply(state, scenario.assignment).inserting(
        "R", ("a4",)
    )
    lean = with_g2.apply(state, target)
    fat = with_g3.apply(state, target)
    result.expect("Γ2-constant change-set size", state.delta_size(lean), 1)
    result.expect("Γ3-constant change-set size", state.delta_size(fat), 2)
    report_g2 = analyze_admissibility(with_g2)
    report_g3 = analyze_admissibility(with_g3)
    result.expect("Γ2-constant admissible", report_g2.is_admissible, True)
    result.expect(
        "Γ3-constant nonextraneous", report_g3.nonextraneous.passed, False
    )
    return result


# ---------------------------------------------------------------------------
# X1/X2: framework generality beyond the paper's running example
# ---------------------------------------------------------------------------


def experiment_x1() -> ExperimentResult:
    """Extension: the component algebra of a star join tree."""
    result = ExperimentResult(
        "X1",
        "Join-tree decomposition (framework extension)",
        "The paper's construction is not chain-specific: a star join "
        "tree yields the same structure -- LDB in bijection with free "
        "edge choices, and a Boolean component algebra of 2^(#edges) "
        "elements with complements across the hub",
    )
    from repro.decomposition.tree import TreeSchema

    star = TreeSchema(
        ("A", "B", "C", "D"),
        {"A": ("a1",), "B": ("b1", "b2"), "C": ("c1",), "D": ("d1",)},
        [("A", "B"), ("B", "C"), ("B", "D")],
    )
    space = star.state_space()
    result.expect("states = product of edge powersets", len(space), 64)
    algebra = current_engine().algebra(space, star.all_component_views())
    result.expect("algebra size", len(algebra), 8)
    result.expect("algebra is Boolean", algebra.is_boolean(), True)
    ab = algebra.named("Γ°AB")
    result.expect(
        "complement of Γ°AB (the other two legs, joined at the hub)",
        algebra.complement_of(ab).name,
        "Γ°BCD",
    )
    for component in algebra.atoms():
        translator = ComponentTranslator.for_component(component, space)
        report = analyze_admissibility(translator)
        result.expect(
            f"{component.name}: admissible", report.is_admissible, True
        )
    return result


def experiment_x2() -> ExperimentResult:
    """Extension: horizontal decomposition through interacting types."""
    result = ExperimentResult(
        "X2",
        "Horizontal decomposition (framework extension)",
        "Splitting a column's type into disjoint cell types (the §2.1 "
        "type-interaction mechanism) makes the per-cell restriction "
        "views a Boolean component algebra, with admissible cell-wise "
        "updates",
    )
    from repro.decomposition.horizontal import HorizontalSchema

    accounts = HorizontalSchema(
        attributes=("Owner", "Region"),
        domains={"Owner": ("alice", "bob")},
        split_attribute="Region",
        cells={"eu": ("de", "fr"), "us": ("ny",)},
    )
    space = accounts.state_space()
    algebra = current_engine().algebra(space, accounts.all_component_views())
    result.expect("algebra size", len(algebra), 4)
    result.expect("algebra is Boolean", algebra.is_boolean(), True)
    eu = algebra.named("σ[eu]")
    result.expect("complement of σ[eu]", algebra.complement_of(eu).name, "σ[us]")
    translator = ComponentTranslator.for_component(eu, space)
    report = analyze_admissibility(translator)
    result.expect("σ[eu]: admissible", report.is_admissible, True)
    return result


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


ALL_EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5": experiment_e5,
    "E6": experiment_e6,
    "E7": experiment_e7,
    "E8": experiment_e8,
    "E9": experiment_e9,
    "E10": experiment_e10,
    "E11": experiment_e11,
    "E12": experiment_e12,
    "X1": experiment_x1,
    "X2": experiment_x2,
}


def run_experiment(
    experiment_id: str, engine: Optional[Engine] = None
) -> ExperimentResult:
    """Run one experiment by id ("E1" ... "E12").

    The experiment's scenario construction and analyses route through
    *engine* (default: the ambient engine), so artifacts are shared
    with previous runs over the same universes.
    """
    engine = engine if engine is not None else current_engine()
    with engine.activate():
        return ALL_EXPERIMENTS[experiment_id]()


def run_all(engine: Optional[Engine] = None) -> List[ExperimentResult]:
    """Run every experiment, in order, sharing one engine.

    Universes recur across experiments (E8-E11 all analyse the small
    ABCD chain; E7/E10/E12 share the two-unary universe), so a shared
    engine turns repeated state-space enumerations and algebra
    discoveries into artifact-cache hits -- see ``engine.stats()``.
    """
    engine = engine if engine is not None else current_engine()
    with engine.activate():
        return [func() for func in ALL_EXPERIMENTS.values()]
