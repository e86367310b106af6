"""``python -m repro.artifactd``: run the HTTP artifact server.

Serves RPRO envelopes until SIGTERM/SIGINT, then prints a final stats
snapshot as JSON and exits.  The first stdout line is a JSON readiness
record carrying the bound port (``--port=0`` asks the OS for a free
one), so fleet launchers and benchmarks can connect without racing::

    {"serving": true, "host": "127.0.0.1", "port": 40321, ...}

``--root=DIR`` mirrors every stored envelope to DIR so a restarted
server comes back warm; without it the store is memory-only and dies
with the process (fine for tests and benchmarks).

Exit status: 0 after a clean shutdown, 2 for bad usage (argparse's
usage error: ``--port`` takes an integer from 0 to 65535).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from types import FrameType
from typing import List, Optional

from repro.artifactd.server import ArtifactServer
from repro.settings import PORT, flag

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.artifactd",
        description="Serve content-addressed RPRO artifact envelopes"
        " over HTTP for cross-host build sharing.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=flag(PORT), default=0, help="0 picks a free port"
    )
    parser.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="mirror envelopes to DIR so restarts keep the fleet warm"
        " (default: memory-only)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    daemon = ArtifactServer(host=args.host, port=args.port, root=args.root)
    daemon.start()

    stop_requested = threading.Event()

    def _request_stop(signum: int, frame: Optional[FrameType]) -> None:
        stop_requested.set()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _request_stop)

    print(
        json.dumps(
            {
                "serving": True,
                "host": daemon.host,
                "port": daemon.port,
                "root": daemon.root,
            }
        ),
        flush=True,
    )
    stop_requested.wait()
    stats = daemon.stats()
    daemon.stop()
    print(json.dumps({"stats": stats}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
