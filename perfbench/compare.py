"""``python3 perfbench/run.py --compare A B``: two sets of runs, side by side.

*A* and *B* are directories (or single files) of full run reports:
the files every run saves under ``.perfbench-results/``, or captured
stdout, whose report line is the one carrying a ``"workload"`` key.
Traced and untraced reports are compared separately; a report of a
run whose outputs were wrong is skipped and counted.

For each workload and metric it prints each side's median and
quartiles (``statistics.quantiles(n=4)``), the share of pairs *B* won
(runs paired by seed where both sides have it, else in order; ties win
for neither), and, for end-to-end metrics, whether *B*'s median is
within the ``BENCHMARK.json`` bound of *A*'s.  It also prints each
side's share of failed operations.  Figures outside ``BENCHMARK.json``
count as better when lower, except rates (unit ``1/s``).  Exit status
1 when a bound fails.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import load_spec, median


def _reports(location: str) -> List[Dict[str, Any]]:
    path = Path(location)
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    out = []
    for file in files:
        if not file.is_file():
            continue
        text = file.read_text(errors="replace")
        try:
            candidates = [json.loads(text)]
        except ValueError:
            candidates = []
            for line in text.splitlines():
                try:
                    candidates.append(json.loads(line))
                except ValueError:
                    continue
        out.extend(
            c for c in candidates if isinstance(c, dict) and "workload" in c
        )
    return out


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _pairs(
    a: List[Dict[str, Any]], b: List[Dict[str, Any]]
) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    by_seed_a = {r["seed"]: r for r in a}
    by_seed_b = {r["seed"]: r for r in b}
    common = sorted(set(by_seed_a) & set(by_seed_b))
    if common:
        return [(by_seed_a[s], by_seed_b[s]) for s in common]
    return list(zip(a, b))


def _values(runs: List[Dict[str, Any]], section: str, name: str) -> List[float]:
    return [
        float(r[section][name]["value"])
        for r in runs
        if name in r.get(section, {})
    ]


def compare(location_a: str, location_b: str) -> int:
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}  # type: ignore[index]
    better = {m["name"]: m["better"] for m in spec["per_layer"]}  # type: ignore[index]
    better.update({name: m["better"] for name, m in bounds.items()})
    sides = [_reports(location_a), _reports(location_b)]
    failures = 0
    for trace in (0, 1):
        groups: Dict[str, List[List[Dict[str, Any]]]] = {}
        for side, reports in enumerate(sides):
            for report in reports:
                if int(report.get("trace", 0)) != trace:
                    continue
                groups.setdefault(report["workload"], [[], []])[side].append(report)
        for workload in sorted(groups):
            runs = groups[workload]
            wrong = [sum(not r["correct"] for r in side) for side in runs]
            runs = [[r for r in side if r["correct"]] for side in runs]
            print(
                f"\n== {workload} (trace {trace}): A {len(runs[0])} runs,"
                f" B {len(runs[1])} runs; wrong-answer runs skipped:"
                f" A {wrong[0]}, B {wrong[1]}"
            )
            if not runs[0] or not runs[1]:
                continue
            for side, label in ((0, "A"), (1, "B")):
                attempted = sum(r["attempted"] for r in runs[side])
                failed = sum(r["failed"] for r in runs[side])
                print(f"   failed share {label}: {failed}/{attempted}")
            sections = ("layers",) if trace else ("metrics", "figures")
            print(
                f"   {'metric':44} {'A median [q1, q3]':>32}"
                f" {'B median [q1, q3]':>32} {'B won':>6}  bound"
            )
            for section in sections:
                names = sorted(
                    {n for side in runs for r in side for n in r.get(section, {})}
                )
                for name in names:
                    a_vals = _values(runs[0], section, name)
                    b_vals = _values(runs[1], section, name)
                    if not a_vals or not b_vals:
                        continue
                    unit = next(
                        r[section][name].get("unit") for r in runs[0]
                        if name in r.get(section, {})
                    )
                    direction = better.get(
                        name, "higher" if unit == "1/s" else "lower"
                    )
                    pairs = _pairs(
                        [r for r in runs[0] if name in r.get(section, {})],
                        [r for r in runs[1] if name in r.get(section, {})],
                    )
                    won = 0
                    for ra, rb in pairs:
                        va = ra[section][name]["value"]
                        vb = rb[section][name]["value"]
                        if (vb < va) if direction == "lower" else (vb > va):
                            won += 1
                    ma, mb = median(a_vals), median(b_vals)
                    verdict = ""
                    if section == "metrics" and name in bounds and ma:
                        worse = (mb - ma) / ma if direction == "lower" else (ma - mb) / ma
                        ok = worse <= bounds[name]["bound"]
                        failures += not ok
                        verdict = (
                            f"{'pass' if ok else 'FAIL'} ({worse:+.1%} worse,"
                            f" bound {bounds[name]['bound']:.0%})"
                        )
                    qa, qb = _quartiles(a_vals), _quartiles(b_vals)
                    print(
                        f"   {section[0]}:{name:42}"
                        f" {ma:12.5g} [{qa[0]:.4g}, {qa[1]:.4g}]"
                        f" {mb:12.5g} [{qb[0]:.4g}, {qb[1]:.4g}]"
                        f" {won}/{len(pairs):<4}  {verdict}"
                    )
    return 1 if failures else 0
