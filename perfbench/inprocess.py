"""The program side of the in-process workloads (child processes).

Run as ``python perfbench/inprocess.py <mode> <inputs.json> <output.json>
<spawned-at>`` by ``cold-session`` (mode ``cold``) and ``store-restart``
(modes ``fill`` and ``restart``).  Each child reaches the program only
through ``Engine``/``Session``, the chain's own view constructors and
the backend object it hands to ``Engine(backend=...)``.  It times its
build (or restart), runs its share of the seeded update stream, and
writes the timings, every outcome in the oracle's row form, and its
structural checks to the output file; the parent checks the outcomes.

*spawned-at* is the parent's ``time.monotonic()`` just before spawning
(the clock is system-wide), so set-up time includes interpreter
start-up.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, FrozenSet, List, Optional

import universe as uv


def main(argv: List[str]) -> int:
    mode, inputs_path, output_path, spawned_at = argv
    from repro.decomposition.chain import ChainSchema
    from repro.decomposition.projections import projection_view
    from repro.engine.engine import Engine
    from repro.relational.instances import DatabaseInstance
    from repro.relational.relations import Relation
    from repro.typealgebra.algebra import NULL

    with open(inputs_path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    universe = uv.ChainUniverse.from_spec(inputs["universe"])
    trace = bool(inputs["trace"])
    seconds = float(inputs["seconds"])

    def relation(rows: List[List[Optional[str]]], arity: int) -> Relation:
        return Relation(
            [tuple(NULL if v is None else v for v in row) for row in rows],
            arity,
        )

    chain = ChainSchema(
        universe.attributes,
        dict(zip(universe.attributes, universe.domains)),
        universe.relation,
    )
    views = (
        chain.component_view([0]),
        chain.component_view([1, 2]),
        projection_view(chain, ("A", "B", "D")),
    )
    arities = {
        rel: len(pos) for v in uv.served_views(universe) for rel, pos, _ in v.relations
    }
    requests = []
    for item in inputs["requests"]:
        base = DatabaseInstance(
            {universe.relation: relation(item["base"], universe.width)}
        )
        target = DatabaseInstance(
            {name: relation(rows, arities[name]) for name, rows in item["target"].items()}
        )
        requests.append((item["view"], base, target))

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install_update_path()
        tracer.install_build()

    backend = None
    report: Dict[str, Any] = {"mode": mode}
    opened = time.monotonic()
    report["setup_s"] = opened - float(spawned_at)
    if mode in ("fill", "restart"):
        from tracing import TimedBackend

        if inputs["backend"] == "sqlite":
            from repro.engine.backends import SQLiteBackend

            inner: Any = SQLiteBackend(inputs["url"])
        else:
            from repro.engine.backends.remote import RemoteBackend

            inner = RemoteBackend(inputs["url"])
        backend = TimedBackend(inner)
        backend.tracer = tracer
        engine = Engine(backend=backend)
    else:
        engine = Engine()
    space = engine.space_from(chain)
    if mode != "restart":
        engine.poset(space)
    session = engine.session(chain.schema, chain.assignment, space)
    for view in views:
        session.register_view(view)
        if mode != "restart":
            engine.analysis(view, space)
    algebra = session.build_component_algebra(chain.all_component_views())
    for view in views:
        session.procedure_for(view.name)
    ready = time.monotonic()
    report["ready_s"] = ready - opened
    build_spans = len(tracer.spans) if tracer is not None else 0
    stats_before = engine.stats()["artifacts"]

    # -- the timed update stream ------------------------------------------------
    latencies: List[float] = []
    outcomes: List[Any] = []
    clock = time.perf_counter
    count = len(requests)
    started = now = clock()
    deadline = started + seconds
    while now < deadline:
        view_name, base, target = requests[len(outcomes) % count]
        t0 = clock()
        outcome = session.update(view_name, base, target)
        now = clock()
        latencies.append(now - t0)
        outcomes.append(outcome)
    elapsed = now - started
    stats_after = engine.stats()["artifacts"]

    # -- after the window: outcomes in row form, checks, layers -------------------
    table: Dict[FrozenSet[uv.Row], int] = {}
    rows_out: List[List[List[Optional[str]]]] = []
    records = []
    for n, outcome in enumerate(outcomes):
        after = None
        if outcome.base_after is not None:
            rows = frozenset(
                tuple(None if v is NULL else v for v in row)
                for row in outcome.base_after.relation(universe.relation).rows
            )
            after = table.get(rows)
            if after is None:
                after = table[rows] = len(rows_out)
                rows_out.append(uv.rows_to_json(rows))
        records.append([n % count, outcome.accepted, outcome.reason, after])
    report["outcomes"] = records
    report["after_rows"] = rows_out
    report["latencies"] = latencies
    report["elapsed_s"] = elapsed

    program_states = {
        frozenset(tuple(None if v is NULL else v for v in row) for row in s.relation(universe.relation).rows)
        for s in space.states
    }
    closed_form = {universe.rows(e) for e in universe.states()}
    k = universe.width
    report["structure"] = {
        "ldb": len(space),
        "ldb_closed_form": universe.state_count(),
        "states_match": program_states == closed_form,
        "algebra_members": len(algebra),
        "algebra_atoms": len(algebra.atoms()),
        "algebra_boolean": bool(algebra.is_boolean()),
        "expected_members": 1 << (k - 1),
        "expected_atoms": k - 1,
    }

    def kinds(stats: Dict[str, Any], field: str) -> Dict[str, int]:
        return {kind: int(v.get(field, 0)) for kind, v in stats["memory"].items()}

    report["builds"] = kinds(stats_before, "builds")
    report["disk_hits"] = {
        kind: int(v.get("disk_hits", 0))
        for kind, v in stats_before["backend"].get("kinds", {}).items()
    }
    hits = sum(kinds(stats_after, "hits").values()) - sum(
        kinds(stats_before, "hits").values()
    )
    report["lookups_per_update"] = hits / max(len(outcomes), 1)
    if backend is not None:
        report["backend"] = backend.counters()
    if tracer is not None:
        from tracing import build_split, self_times, totals

        records = tracer.records()
        spans = self_times(records)
        report["build_split"] = build_split(records[:build_spans])
        report["build_spans"] = totals(spans[:build_spans])
        report["update_spans"] = totals(spans[build_spans:])
    with open(output_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
