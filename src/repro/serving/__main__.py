"""``python -m repro.serving``: run the async update server.

Serves the default chain service until SIGTERM/SIGINT, then drains
gracefully and prints the drain report as JSON.  The first stdout line
is a JSON readiness record carrying the bound port (``--port=0`` asks
the OS for a free one), so wrappers and benchmarks can connect without
racing::

    {"serving": true, "host": "127.0.0.1", "port": 40321, ...}

``--warm-url=PATH`` warm-starts from a sibling builder process first:
the sibling compiles the state space into a shared SQLite artifact
store at PATH, and the server opens the same store, so its own warm-up
is a cache hit.  A sibling that dies before publishing exits this
process with a typed message and status 3 -- never a traceback.

Exit status: 0 after a graceful drain, 1 when the drain deadline
expired with work still running, 2 for bad usage (argparse's usage
error) or a knob out of range (one ``configuration error`` line on
stderr), 3 for a failed warm start.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import List, Optional

from repro.engine.backends import SQLiteBackend
from repro.engine.engine import Engine
from repro.errors import ConfigError, WarmStartError
from repro.serving.server import UpdateServer
from repro.serving.service import chain_service
from repro.serving.warmstart import sibling_warm_start
from repro.settings import (
    PORT,
    SERVER_DEADLINE_MS,
    SERVER_DRAIN_MS,
    SERVER_MAX_INFLIGHT,
    SERVER_QUEUE_DEPTH,
    flag,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Serve view updates over HTTP with admission"
        " control and graceful drain.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=flag(PORT), default=0, help="0 picks a free port"
    )
    parser.add_argument(
        "--max-inflight",
        type=flag(SERVER_MAX_INFLIGHT),
        default=None,
        help="concurrency tokens (default: REPRO_SERVER_MAX_INFLIGHT)",
    )
    parser.add_argument(
        "--queue-depth",
        type=flag(SERVER_QUEUE_DEPTH),
        default=None,
        help="per-priority queue bound (default: REPRO_SERVER_QUEUE_DEPTH)",
    )
    parser.add_argument(
        "--drain-ms",
        type=flag(SERVER_DRAIN_MS),
        default=None,
        help="graceful-drain budget (default: REPRO_SERVER_DRAIN_MS)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=flag(SERVER_DEADLINE_MS),
        default=None,
        help="default per-request deadline (default:"
        " REPRO_SERVER_DEADLINE_MS)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="open a SQLite artifact store at PATH (persistent cache)",
    )
    parser.add_argument(
        "--warm-url",
        default=None,
        metavar="PATH",
        help="warm-start: a sibling process compiles into PATH first,"
        " then the server opens the same store",
    )
    return parser


async def _serve(args: argparse.Namespace, engine: Optional[Engine]) -> int:
    server = UpdateServer(
        chain_service(),
        engine=engine,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        drain_ms=args.drain_ms,
        deadline_ms=args.deadline_ms,
    )
    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, server.request_drain)
    print(
        json.dumps(
            {
                "serving": True,
                "host": server.host,
                "port": server.port,
                "service": server.spec.name,
                "max_inflight": server.max_inflight,
                "queue_depth": server.queue_depth,
            }
        ),
        flush=True,
    )
    await server.drain_requested()
    report = await server.drain()
    await server.stop()
    print(json.dumps({"drain": report}), flush=True)
    return 0 if report["graceful"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    store_url = args.store or args.warm_url
    if args.warm_url is not None:
        try:
            sibling_warm_start(args.warm_url)
        except WarmStartError as exc:
            print(f"warm start failed: {exc}", file=sys.stderr)
            return 3
    try:
        engine = (
            Engine(backend=SQLiteBackend(store_url))
            if store_url is not None
            else None
        )
        return asyncio.run(_serve(args, engine))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
