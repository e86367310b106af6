"""The JSON wire protocol of the update server.

One request shape, one outcome shape, both deliberately boring:

* a database instance travels as ``{relation: [[value, ...], ...]}``
  with the paper's null ``eta`` spelled as JSON ``null`` (the
  :data:`~repro.typealgebra.algebra.NULL` singleton round-trips); the
  receiver decodes each relation at the arity its schema declares, so
  an empty row list is the empty relation of that arity;
* an update request names a view, the current base state, the target
  view state, and optionally a ``priority`` (``high``/``normal``/
  ``low``), a per-request ``deadline_ms``, and ``wait`` (respond with
  the final outcome instead of a ticket id);
* an :class:`~repro.engine.engine.UpdateOutcome` travels with its
  verdict, reason, evidence, and the reflected base state.

Every parse failure raises a typed
:class:`~repro.errors.RequestProtocolError` (HTTP 400), never a bare
``KeyError`` -- the server's fail-closed contract starts at the socket.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.engine.engine import UpdateOutcome
from repro.errors import RequestProtocolError
from repro.relational.instances import DatabaseInstance
from repro.relational.relations import Relation
from repro.typealgebra.algebra import NULL

__all__ = [
    "PRIORITIES",
    "UpdateRequest",
    "instance_from_wire",
    "instance_to_wire",
    "outcome_to_wire",
    "parse_update_request",
    "request_to_wire",
]

#: Admission priorities, highest first (the order workers drain them).
PRIORITIES: Tuple[str, ...] = ("high", "normal", "low")

WireInstance = Dict[str, List[List[Optional[str]]]]


def instance_to_wire(instance: DatabaseInstance) -> WireInstance:
    """*instance* as JSON-ready data (``NULL`` becomes ``null``).

    Rows are sorted (nulls first, then by value) so equal instances
    serialize identically -- handy for tests and cache-key-free diffing
    on the client side.
    """
    wire: WireInstance = {}
    for name, relation in instance.items():
        rows = [
            [None if value is NULL else str(value) for value in row]
            for row in relation.rows
        ]
        rows.sort(key=lambda row: [(v is not None, v or "") for v in row])
        wire[name] = rows
    return wire


def instance_from_wire(
    data: object, arities: Optional[Mapping[str, int]] = None
) -> DatabaseInstance:
    """A :class:`DatabaseInstance` from wire data (``null`` -> ``NULL``).

    *arities* (relation name -> arity, e.g. ``Schema.arities()``) fixes
    the arity of each named relation; without it, or for a name it does
    not list, the arity is inferred from the rows, which makes an empty
    row list a relation of arity 0.
    """
    if not isinstance(data, dict):
        raise RequestProtocolError(
            f"instance must be an object mapping relation names to row"
            f" lists, got {type(data).__name__}"
        )
    relations: Dict[str, List[Tuple[object, ...]]] = {}
    for name, rows in data.items():
        if not isinstance(name, str) or not isinstance(rows, list):
            raise RequestProtocolError(
                "instance relations must map string names to row lists"
            )
        decoded: List[Tuple[object, ...]] = []
        for row in rows:
            if not isinstance(row, (list, tuple)):
                raise RequestProtocolError(
                    f"rows of relation {name!r} must be lists, got"
                    f" {type(row).__name__}"
                )
            decoded.append(
                tuple(NULL if value is None else value for value in row)
            )
        relations[name] = decoded
    declared = arities or {}
    try:
        return DatabaseInstance(
            {
                name: Relation(rows, declared.get(name))
                for name, rows in relations.items()
            }
        )
    except Exception as exc:
        raise RequestProtocolError(
            f"instance is not well-formed: {type(exc).__name__}: {exc}"
        ) from exc


@dataclass(frozen=True)
class UpdateRequest:
    """One parsed ``submit-update`` request."""

    view: str
    base: DatabaseInstance
    target: DatabaseInstance
    priority: str = "normal"
    #: Per-request deadline; ``None`` falls back to the server default.
    deadline_ms: Optional[float] = None
    #: Respond with the final outcome instead of a ticket id.
    wait: bool = False


def parse_update_request(
    body: bytes,
    base_arities: Optional[Mapping[str, int]] = None,
    view_arities: Optional[Mapping[str, Mapping[str, int]]] = None,
) -> UpdateRequest:
    """Parse a ``submit-update`` JSON body (fail closed on any damage).

    The base state decodes at *base_arities* (the base schema's
    signature) and the target at ``view_arities[view]`` (the addressed
    view's signature); see :func:`instance_from_wire`.
    """
    try:
        data = json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise RequestProtocolError(f"request body is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise RequestProtocolError("request body must be a JSON object")
    view = data.get("view")
    if not isinstance(view, str) or not view:
        raise RequestProtocolError("request must name a 'view' (string)")
    for field in ("base", "target"):
        if field not in data:
            raise RequestProtocolError(f"request is missing {field!r}")
    priority = data.get("priority", "normal")
    if priority not in PRIORITIES:
        raise RequestProtocolError(
            f"unknown priority {priority!r}; expected one of {PRIORITIES}"
        )
    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        # ``not > 0`` also refuses NaN, which Python's json reads.
        if not isinstance(deadline_ms, (int, float)) or not deadline_ms > 0:
            raise RequestProtocolError(
                "deadline_ms must be a positive number"
            )
        deadline_ms = float(deadline_ms)
    wait = data.get("wait", False)
    if not isinstance(wait, bool):
        raise RequestProtocolError("wait must be a boolean")
    return UpdateRequest(
        view=view,
        base=instance_from_wire(data["base"], base_arities),
        target=instance_from_wire(
            data["target"], (view_arities or {}).get(view)
        ),
        priority=priority,
        deadline_ms=deadline_ms,
        wait=wait,
    )


def request_to_wire(request: UpdateRequest) -> Dict[str, object]:
    """*request* as JSON-ready data (inverse of
    :func:`parse_update_request`); what clients put on the wire."""
    wire: Dict[str, object] = {
        "view": request.view,
        "base": instance_to_wire(request.base),
        "target": instance_to_wire(request.target),
        "priority": request.priority,
        "wait": request.wait,
    }
    if request.deadline_ms is not None:
        wire["deadline_ms"] = request.deadline_ms
    return wire


def outcome_to_wire(outcome: UpdateOutcome) -> Dict[str, object]:
    """An :class:`UpdateOutcome` as JSON-ready data."""
    wire: Dict[str, object] = {
        "view": outcome.view_name,
        "accepted": outcome.accepted,
        "reason": outcome.reason,
        "message": outcome.message,
        "complement": outcome.complement,
        "filter_component": outcome.filter_component,
        "evidence": list(outcome.evidence),
        "elapsed_ms": round(outcome.elapsed * 1e3, 3),
    }
    if outcome.base_after is not None:
        wire["base_after"] = instance_to_wire(outcome.base_after)
    return wire
