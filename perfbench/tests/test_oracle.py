"""The constant-complement oracle: agreement with the program, and the
mutation check that its outcome checks cannot pass vacuously."""

import random

import pytest

import universe as uv
from children import check_child


@pytest.fixture(scope="module")
def oracle():
    universe = uv.abcd_universe("abcd-chain-small", (2, 1, 2, 1))
    return uv.ConstantComplementOracle(universe, uv.served_views(universe))


def test_closed_form_and_kept_edges(oracle):
    assert len(oracle.states) == oracle.universe.state_count() == 64
    # Γ°AB and Γ_ABD keep BC and CD constant; Γ°BCD keeps AB.
    assert oracle.kept == {"Γ°AB": (1, 2), "Γ°BCD": (0,), "Γ_ABD": (1, 2)}
    assert oracle.mismatch_possible("Γ_ABD")
    assert not oracle.mismatch_possible("Γ°AB")


def test_stream_mixes_every_kind_and_covers_every_state(oracle):
    stream = uv.covering_stream(oracle, random.Random(5))
    kinds = {(r.view, r.kind) for r in stream}
    assert ("Γ_ABD", "mismatch") in kinds
    assert {k for _, k in kinds} == {"edit", "getput", "mismatch", "illegal"}
    assert {r.base for r in stream} == {
        i for i, rows in enumerate(oracle.rows) if rows
    }
    assert len(stream) == len(uv.covering_stream(oracle, random.Random(6)))
    assert not any(uv.has_empty_relation(oracle, r) for r in stream)


def _program_outcomes(oracle, requests):
    from repro.decomposition.chain import ChainSchema
    from repro.decomposition.projections import projection_view
    from repro.engine.engine import Engine
    from repro.relational.instances import DatabaseInstance
    from repro.relational.relations import Relation
    from repro.typealgebra.algebra import NULL

    universe = oracle.universe
    chain = ChainSchema(
        universe.attributes, dict(zip(universe.attributes, universe.domains))
    )
    views = (
        chain.component_view([0]),
        chain.component_view([1, 2]),
        projection_view(chain, ("A", "B", "D")),
    )
    engine = Engine()
    session = engine.session(
        chain.schema, chain.assignment, engine.space_from(chain)
    )
    for view in views:
        session.register_view(view)
    session.build_component_algebra(chain.all_component_views())

    def rel(rows, arity):
        return Relation(
            [tuple(NULL if v is None else v for v in r) for r in rows], arity
        )

    arity = {
        name: len(pos)
        for v in oracle.views.values()
        for name, pos, _ in v.relations
    }
    for request in requests:
        base = DatabaseInstance({"R": rel(oracle.rows[request.base], 4)})
        target = DatabaseInstance(
            {name: rel(rows, arity[name]) for name, rows in request.target}
        )
        outcome = session.update(request.view, base, target)
        after = None
        if outcome.base_after is not None:
            after = frozenset(
                tuple(None if v is NULL else v for v in row)
                for row in outcome.base_after.relation("R").rows
            )
        yield request, outcome, after


def test_oracle_agrees_with_session_update(oracle):
    requests = uv.covering_stream(oracle, random.Random(7))
    requests += uv.wire_fault_requests(oracle)
    checked = 0
    for request, outcome, after in _program_outcomes(oracle, requests):
        assert (
            uv.check_outcome(
                oracle, request.expect, outcome.accepted, outcome.reason, after
            )
            is None
        ), (request.kind, request.view)
        checked += 1
    assert checked == len(requests)


def _report(oracle, requests):
    """A child report whose every outcome is the oracle's own."""
    rows = {}
    outcomes = []
    for i, r in enumerate(requests):
        after = None
        if r.expect.accepted:
            after = rows.setdefault(r.expect.after, len(rows))
        outcomes.append([i, r.expect.accepted, r.expect.reason, after])
    order = sorted(rows, key=rows.get)
    return {
        "mode": "cold",
        "outcomes": outcomes,
        "after_rows": [uv.rows_to_json(oracle.rows[s]) for s in order],
        "structure": {
            "ldb": 64,
            "ldb_closed_form": 64,
            "states_match": True,
            "algebra_members": 8,
            "algebra_atoms": 3,
            "algebra_boolean": True,
            "expected_members": 8,
            "expected_atoms": 3,
        },
    }


def test_mutation_check_rejects_each_corruption(oracle):
    requests = uv.covering_stream(oracle, random.Random(8))
    clean = _report(oracle, requests)
    assert check_child(oracle, requests, clean) == (0, [])

    def find(kind):
        return next(i for i, r in enumerate(requests) if r.kind == kind)

    edit, mismatch, illegal = find("edit"), find("mismatch"), find("illegal")

    flipped = _report(oracle, requests)
    flipped["outcomes"][edit][1:] = [False, uv.IMAGE_MISMATCH, None]
    assert check_child(oracle, requests, flipped)[0] == 1

    accepted_wrongly = _report(oracle, requests)
    accepted_wrongly["outcomes"][mismatch][1:] = [True, "", 0]
    assert check_child(oracle, requests, accepted_wrongly)[0] == 1

    perturbed = _report(oracle, requests)
    slot = perturbed["outcomes"][edit][3]
    perturbed["after_rows"][slot] = perturbed["after_rows"][slot][1:]
    assert check_child(oracle, requests, perturbed)[0] >= 1

    swapped = _report(oracle, requests)
    swapped["outcomes"][mismatch][2] = uv.ILLEGAL_VIEW_STATE
    swapped["outcomes"][illegal][2] = uv.IMAGE_MISMATCH
    assert check_child(oracle, requests, swapped)[0] == 2

    broken = _report(oracle, requests)
    broken["structure"]["algebra_atoms"] = 2
    assert check_child(oracle, requests, broken)[1]
