"""The repository benchmark: ``python3 perfbench/run.py``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare DIR_A DIR_B

Workloads (see README.md): ``serve``, ``cold-session``,
``store-restart``.  The second-to-last stdout line is the run's full
report; the last line is ``{"correct", "attempted", "failed",
"metrics"}`` with every end-to-end metric of ``BENCHMARK.json``
(``--trace 0``) or every per-layer metric (``--trace 1``).  The exit
status is 0 only when every checked output was correct; 2 when the
benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from common import BenchError, emit, require_program


def _workloads() -> Dict[str, Callable[[int, float, bool], dict]]:
    import cold
    import serve
    import store

    return {"serve": serve.run, "cold-session": cold.run, "store-restart": store.run}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare)
    try:
        require_program()
        workloads = _workloads()
        if args.workload not in workloads:
            raise BenchError(
                f"unknown workload {args.workload!r}; have {sorted(workloads)}"
            )
        report = workloads[args.workload](args.seed, args.seconds, bool(args.trace))
        return emit(report, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
