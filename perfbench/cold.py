"""The ``cold-session`` workload: a cold build in a fresh interpreter,
then a single-threaded stream of ``Session.update`` calls.

Each run spawns :data:`CHILDREN` fresh interpreters one after another.
Each builds a memory-only ``Engine`` session over the 4096-state ABCD
chain -- space, poset, the analyses of the three served views, the
algebra from every edge-subset candidate, one procedure per view --
and then services its share of the seeded request stream for
``seconds / CHILDREN`` seconds.  A fresh interpreter per build keeps
process-lifetime caches (such as the transpose schedule) from hiding
what a starting process pays.
"""

from __future__ import annotations

import random
from statistics import fmean
from typing import Any, Dict, List

import universe as uv
from children import (
    check_child,
    inprocess_layers,
    run_child,
    stream_metrics,
    write_inputs,
)
from common import layer_table, median, metric, workdir

SIZES = (2, 2, 2, 2)
CHILDREN = 2
#: Distinct requests the stream cycles through.  At 4096 states the
#: update path's working set outgrows the cache as the pool grows, and
#: then a memory-bound neighbour on the host slows it: a 1000-request
#: pool ran 1.30x slower next to a memory-streaming process, a
#: 100-request pool 1.11x.
REQUESTS = 200


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    universe = uv.abcd_universe("abcd-4096", SIZES)
    oracle = uv.ConstantComplementOracle(universe, uv.served_views(universe))
    requests = uv.random_stream(oracle, random.Random(seed), REQUESTS)
    reports = []
    with workdir() as work:
        inputs = work / "inputs.json"
        write_inputs(
            inputs, oracle, requests, trace=trace, seconds=seconds / CHILDREN
        )
        for k in range(CHILDREN):
            reports.append(run_child("cold", inputs, work, f"cold{k}"))

    wrong = 0
    errors: List[str] = []
    for report in reports:
        w, e = check_child(oracle, requests, report)
        wrong += w
        errors.extend(e)
    stream = stream_metrics(reports)
    updates = sum(len(r["outcomes"]) for r in reports)
    builds = [r["ready_s"] for r in reports]
    setups = [r["setup_s"] for r in reports]
    out: Dict[str, Any] = {
        "workload": "cold-session",
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": wrong == 0 and not errors,
        "errors": errors,
        "attempted": updates + len(reports),
        "failed": 0,
        "metrics": {
            "update_ms": stream["update_mean_ms"],
            "ready_s": metric(fmean(builds), "s", samples=len(builds)),
            "setup_s": metric(median(setups), "s", samples=len(setups)),
        },
        "figures": dict(
            stream,
            cold_build_s=metric(
                fmean(builds), "s", samples=len(builds), all=builds
            ),
            ldb=metric(reports[0]["structure"]["ldb"], "count"),
        ),
        "accounting": {
            "builds": len(reports),
            "updates": updates,
            "wrong_answers": wrong,
        },
    }
    if trace:
        out["layers"] = layer_table(inprocess_layers(reports, reports, reports))
    return out
