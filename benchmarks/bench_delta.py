"""Delta report between a fresh ``BENCH_kernel.json`` and a baseline.

Run after the benchmark suite has (re)written ``BENCH_kernel.json``::

    python benchmarks/bench_delta.py --baseline <committed> --current <fresh>

Prints one table row per (kernel, benchmark) pair present in both
files, comparing the recorded ``median_seconds`` (median wall-clock
per round; a mean drifts with a few slow rounds).  Bulk rows whose
median regresses by more than the threshold (default 25%) emit a
GitHub ``::warning::`` annotation; the exit code is always 0 -- the CI job
wiring this up is deliberately non-blocking, the annotations are the
signal.  New or vanished benchmarks are listed but never warn.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

#: Kernel whose regressions produce warning annotations: the default
#: kernel, the one every caller runs unless it selects the naive
#: reference.
WARN_KERNEL = "bulk"

#: The per-row statistic compared between the two files.
STAT = "median_seconds"


def load(path: Path) -> Dict[str, Dict[str, dict]]:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        print(f"cannot read {path}: {error}")
        return {}
    return payload if isinstance(payload, dict) else {}


def iter_rows(
    baseline: Dict[str, Dict[str, dict]], current: Dict[str, Dict[str, dict]]
) -> Tuple[Tuple[str, str, float, float], ...]:
    rows = []
    for kernel in sorted(set(baseline) & set(current)):
        base_entries = baseline[kernel]
        for name, entry in sorted(current[kernel].items()):
            base = base_entries.get(name)
            if not isinstance(base, dict) or not isinstance(entry, dict):
                continue
            before = base.get(STAT)
            after = entry.get(STAT)
            if isinstance(before, (int, float)) and isinstance(
                after, (int, float)
            ):
                rows.append((kernel, name, float(before), float(after)))
    return tuple(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="committed BENCH_kernel.json to compare against",
    )
    parser.add_argument(
        "--current",
        type=Path,
        required=True,
        help="freshly generated BENCH_kernel.json",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative regression that triggers a warning (default 0.25)",
    )
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    current = load(args.current)
    rows = iter_rows(baseline, current)
    if not rows:
        print("no comparable benchmark rows")
        return 0

    width = max(len(name) for _, name, _, _ in rows)
    print(f"{'kernel':7s} {'benchmark':{width}s} {'before':>10s} "
          f"{'after':>10s} {'delta':>8s}")
    regressions = 0
    for kernel, name, before, after in rows:
        delta = (after - before) / before if before else 0.0
        flag = ""
        if kernel == WARN_KERNEL and delta > args.threshold:
            regressions += 1
            flag = "  <-- regression"
            print(
                f"::warning title=bench regression::{name} under the "
                f"{kernel} kernel: {before:.4f}s -> {after:.4f}s "
                f"({delta:+.0%}, threshold {args.threshold:.0%})"
            )
        print(
            f"{kernel:7s} {name:{width}s} {before:10.4f} {after:10.4f} "
            f"{delta:+8.0%}{flag}"
        )
    print(
        f"{len(rows)} rows compared; {regressions} {WARN_KERNEL} "
        f"regression(s) past {args.threshold:.0%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
