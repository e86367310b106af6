"""The wire protocol: round trips and fail-closed parsing."""

import json

import pytest

from repro.errors import RequestProtocolError
from repro.relational.instances import DatabaseInstance
from repro.serving.protocol import (
    instance_from_wire,
    instance_to_wire,
    outcome_to_wire,
    parse_update_request,
    request_to_wire,
)
from repro.typealgebra.algebra import NULL


def view_arities(spec):
    """Each served view's signature, by view name."""
    return {view.name: view.mapping.target_arities() for view in spec.views}


class TestInstanceRoundTrip:
    def test_null_travels_as_json_null(self, spec):
        base = spec.sample_requests[1].target  # contains a NULL entry
        wire = instance_to_wire(base)
        assert any(
            None in row for rows in wire.values() for row in rows
        )
        assert instance_from_wire(wire) == base

    def test_round_trip_every_sample(self, spec):
        base_arities = spec.schema.arities()
        targets = view_arities(spec)
        # The empty base state and every view's empty state: on the
        # wire an empty row list carries no arity of its own.
        cases = [(spec.schema.empty_instance(), base_arities)] + [
            (DatabaseInstance.empty(arities), arities)
            for arities in targets.values()
        ]
        for request in spec.sample_requests:
            cases.append((request.base, base_arities))
            cases.append((request.target, targets[request.view]))
        for instance, arities in cases:
            wire = instance_to_wire(instance)
            json.dumps(wire)  # must be JSON-ready as-is
            assert instance_from_wire(wire, arities) == instance

    def test_wire_form_is_deterministic(self, spec):
        base = spec.sample_requests[0].base
        assert json.dumps(instance_to_wire(base)) == json.dumps(
            instance_to_wire(base)
        )

    @pytest.mark.parametrize(
        "garbage",
        [
            "not a dict",
            {"R": "not a list"},
            {"R": ["not a row"]},
            {3: []},
        ],
    )
    def test_malformed_instances_fail_typed(self, garbage):
        with pytest.raises(RequestProtocolError):
            instance_from_wire(garbage)


class TestRequestParsing:
    def test_request_round_trip(self, spec):
        for request in spec.sample_requests:
            body = json.dumps(request_to_wire(request)).encode()
            parsed = parse_update_request(body)
            assert parsed.view == request.view
            assert parsed.base == request.base
            assert parsed.target == request.target
            assert parsed.priority == request.priority

    def test_empty_relations_decode_at_the_declared_arity(self, spec):
        request = spec.sample_requests[0]
        wire = request_to_wire(request)
        wire["base"] = instance_to_wire(spec.schema.empty_instance())
        wire["target"] = {name: [] for name in wire["target"]}
        parsed = parse_update_request(
            json.dumps(wire).encode(),
            spec.schema.arities(),
            view_arities(spec),
        )
        assert parsed.base == spec.schema.empty_instance()
        assert parsed.target == DatabaseInstance.empty(
            view_arities(spec)[request.view]
        )

    def test_rows_of_the_wrong_width_fail_typed(self, spec):
        wire = request_to_wire(spec.sample_requests[0])
        name = next(iter(wire["base"]))
        wire["base"][name] = [["one-column"]]
        with pytest.raises(RequestProtocolError, match="arity"):
            parse_update_request(
                json.dumps(wire).encode(),
                spec.schema.arities(),
                view_arities(spec),
            )

    def test_deadline_and_wait_travel(self, spec):
        wire = request_to_wire(spec.sample_requests[0])
        wire["deadline_ms"] = 1500
        wire["wait"] = True
        parsed = parse_update_request(json.dumps(wire).encode())
        assert parsed.deadline_ms == 1500.0
        assert parsed.wait is True

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda wire: wire.pop("view"),
            lambda wire: wire.pop("base"),
            lambda wire: wire.pop("target"),
            lambda wire: wire.update(view=7),
            lambda wire: wire.update(priority="urgent"),
            lambda wire: wire.update(deadline_ms=-5),
            lambda wire: wire.update(deadline_ms="soon"),
            lambda wire: wire.update(deadline_ms=float("nan")),
            lambda wire: wire.update(wait="yes"),
            lambda wire: wire.update(base="not an instance"),
        ],
    )
    def test_damaged_requests_fail_typed(self, spec, mutate):
        wire = request_to_wire(spec.sample_requests[0])
        mutate(wire)
        with pytest.raises(RequestProtocolError):
            parse_update_request(json.dumps(wire).encode())

    @pytest.mark.parametrize(
        "body", [b"", b"not json", b"[1, 2]", b"\xff\xfe"]
    )
    def test_non_json_bodies_fail_typed(self, body):
        with pytest.raises(RequestProtocolError):
            parse_update_request(body)


class TestOutcomeWire:
    def test_accepted_outcome_carries_base_after(self, engine, spec):
        session = engine.session(
            spec.schema,
            spec.assignment,
            engine.space_from(spec.space_source),
        )
        for view in spec.views:
            session.register_view(view)
        session.build_component_algebra(spec.candidates)
        request = spec.sample_requests[0]
        outcome = session.update(request.view, request.base, request.target)
        wire = outcome_to_wire(outcome)
        json.dumps(wire)
        assert wire["accepted"] is True
        assert wire["view"] == request.view
        assert "base_after" in wire
        assert wire["elapsed_ms"] >= 0

    def test_rejected_outcome_has_reason_no_base_after(self, engine, spec):
        session = engine.session(
            spec.schema,
            spec.assignment,
            engine.space_from(spec.space_source),
        )
        for view in spec.views:
            session.register_view(view)
        session.build_component_algebra(spec.candidates)
        request = spec.sample_requests[2]  # the formally rejected one
        outcome = session.update(request.view, request.base, request.target)
        wire = outcome_to_wire(outcome)
        assert wire["accepted"] is False
        assert wire["reason"] == "illegal-view-state"
        assert "base_after" not in wire


def test_null_sentinel_assumption():
    """The wire protocol spells eta as JSON null; make sure NULL's
    repr stays the single-character ``n`` the examples print."""
    assert repr(NULL) == "n"
