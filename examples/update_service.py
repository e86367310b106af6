#!/usr/bin/env python3
"""A miniature view-update service built on ViewUpdateSystem.

Simulates what a database front-end would do with this library: a base
schema administered centrally, several user views registered against
it, and a stream of view-level update requests serviced through the
canonical constant-component-complement procedure -- with full
explanations, including rejections.

Run:  python examples/update_service.py

Persistence flags (the same selection the ``REPRO_STORE_BACKEND`` /
``REPRO_STORE_URL`` environment variables spell):

  --backend=local --store-url=/tmp/repro-cache
      serve artifacts through the pickle-directory backend;
  --backend=sqlite --store-url=/tmp/repro.db
      serve them through one shared SQLite database -- safe for many
      service processes on one file;
  --two-process-demo [--store-url=/tmp/repro.db]
      fork a sibling process that compiles the state space into a
      shared SQLite store, then serve this process's session entirely
      from the sibling's build (a warm start without ever enumerating).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro import NULL, ViewUpdateSystem
from repro.decomposition.projections import projection_view
from repro.engine.backends import SQLiteBackend, create_backend
from repro.engine.engine import Engine
from repro.errors import BackendConfigError, UpdateRejected, WarmStartError
from repro.serving.warmstart import sibling_warm_start
from repro.workloads.scenarios import abcd_chain_small


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="examples/update_service.py",
        description="A miniature view-update service.",
        allow_abbrev=False,
    )
    parser.add_argument("--backend", help="local or sqlite")
    parser.add_argument("--store-url", metavar="PATH")
    parser.add_argument("--two-process-demo", action="store_true")
    return parser


def two_process_demo(url: str | None) -> int:
    """Warm-start this process from a sibling's SQLite-backed build.

    The fork-and-wait lives in
    :func:`repro.serving.warmstart.sibling_warm_start` (the same path
    ``python -m repro.serving --warm-url=...`` uses).  A sibling that
    dies before publishing -- crash, kill, timeout, or a clean exit
    that left no store behind -- surfaces as a typed
    :class:`WarmStartError` and a nonzero exit, never a traceback.
    """
    if url is None:
        scratch = tempfile.mkdtemp(prefix="repro-demo-")
        url = str(Path(scratch) / "artifacts.db")
    print(f"shared SQLite artifact store: {url}")

    print("[1/2] sibling process compiles the state space ...")
    try:
        sibling_warm_start(url)
    except WarmStartError as exc:
        print(f"warm start failed: {exc}")
        return 3

    print("[2/2] this process serves updates from the sibling's build ...")
    engine = Engine(backend=SQLiteBackend(url))
    exit_code = run_service(engine)

    kinds = engine.stats()["artifacts"]["backend"]["kinds"]
    disk_hits = sum(counters["disk_hits"] for counters in kinds.values())
    builds = sum(
        counters["builds"]
        for counters in engine.stats()["artifacts"]["memory"].values()
        if counters
    )
    print(
        f"warm start: {disk_hits} artifact(s) loaded from the sibling's"
        f" build, {builds} built locally"
    )
    space_hits = kinds.get("space", {}).get("disk_hits", 0)
    print(
        "state space served from the shared store: "
        + ("yes" if space_hits else "no")
    )
    return exit_code


def run_service(engine: Engine | None) -> int:
    chain = abcd_chain_small()
    if engine is not None:
        space = engine.space_from(chain)
    else:
        space = chain.state_space()
    system = ViewUpdateSystem(
        chain.schema, chain.assignment, space, engine=engine
    )

    # Register user views: two components and one lossy projection.
    system.register_view(chain.component_view([0]))
    system.register_view(chain.component_view([1, 2]))
    system.register_view(projection_view(chain, ("A", "B", "D")))
    system.build_component_algebra(chain.all_component_views())

    print("registered views:", ", ".join(v.name for v in system.views))
    for view in system.views:
        procedure = system.procedure_for(view.name)
        print(
            f"  {view.name}: constant complement {procedure.complement.name}"
        )
    print()

    # The administrator loads an initial database.
    state = chain.state_from_edges(
        [{("a1", "b1"), ("a2", "b1")}, {("b1", "c1")}, {("c1", "d1")}]
    )
    print("initial edges:", chain.edges_of(state))
    print()

    # A scripted day of view updates.  Each request edits the *current*
    # view state, exactly as an interactive user would.
    requests = [
        (
            "Γ°AB",
            lambda now: now.deleting("R_AB", ("a2", "b1")),
            "drop (a2, b1)",
        ),
        (
            "Γ°BCD",
            lambda now: now.inserting("R_BCD", (NULL, "c2", "d1")),
            "connect c2 to d1",
        ),
        (
            "Γ_ABD",
            lambda now: now.deleting("R_ABD", (NULL, NULL, "d1")),
            "try to drop (n, n, d1) -- entangled with the AB chain, so no legal view state results",
        ),
    ]

    for view_name, edit, description in requests:
        current_view_state = system.view(view_name).apply(
            state, chain.assignment
        )
        target = edit(current_view_state)
        print(f"--- {view_name}: {description} ---")
        try:
            new_state = system.update(view_name, state, target)
        except UpdateRejected as exc:
            print(f"REJECTED: {exc} (reason={exc.reason})")
            print()
            continue
        changes = state.change_summary(new_state)
        for relation, diff in sorted(changes.items()):
            for row in diff["inserted"]:
                print(f"  + {relation}{row}")
            for row in diff["deleted"]:
                print(f"  - {relation}{row}")
        # Global consistency: every other view is refreshed from the
        # new base state -- the constant complement is untouched.
        for other in system.views:
            if other.name == view_name:
                continue
            before = other.apply(state, chain.assignment)
            after = other.apply(new_state, chain.assignment)
            changed = "changed" if before != after else "unchanged"
            print(f"  (view {other.name}: {changed})")
        state = new_state
        print()

    print("final edges:", chain.edges_of(state))
    return 0


def main(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    if args.two_process_demo:
        return two_process_demo(args.store_url)
    if args.backend is None:
        return run_service(None)
    try:
        backend = create_backend(args.backend, args.store_url or "")
    except BackendConfigError as exc:
        print(f"backend configuration error: {exc}")
        return 2
    return run_service(Engine(backend=backend))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
