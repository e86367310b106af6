"""Start ``python -m repro.serving`` with the span wrappers installed.

Usage: ``python perfbench/serve_launcher.py <spans.json> [server args]``.
The wrappers go in first, then the server's own ``main`` runs with the
remaining arguments; when it returns (after the SIGTERM drain) the
spans kept in memory are written to *spans.json*.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install_update_path()
    tracer.install_build()
    tracer.install_serving()
    from repro.serving.__main__ import main as serve

    code = serve(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
