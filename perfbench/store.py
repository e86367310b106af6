"""The ``store-restart`` workload: fill an empty persistent store, then
restart fresh processes from it, on two backends.

Each run makes :data:`ROUNDS` rounds.  A round spawns a memory-only
``python -m repro.artifactd``, then, one process at a time:

* a fill on SQLite (the store ``python -m repro.serving --store``
  opens) and a fill on the artifact server through ``RemoteBackend``:
  each builds the 1024-state chain session from nothing, writing every
  persistable artifact (envelope writes and leases included);
* :data:`RESTARTS` restarts per backend: each opens the filled store,
  brings up a session with every procedure ready -- and must build
  nothing -- then services its share of the seeded update stream.

Set-up is timed from spawning the artifact server to the first fill
opening its backend.
"""

from __future__ import annotations

import random
import sys
import time
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
from common import BenchError, layer_table, median, metric, spawned, workdir

SIZES = (2, 2, 2, 1)
ROUNDS = 4
RESTARTS = 2
REQUESTS = 600
BACKENDS = ("sqlite", "remote")


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    universe = uv.abcd_universe("abcd-1024", SIZES)
    oracle = uv.ConstantComplementOracle(universe, uv.served_views(universe))
    requests = uv.random_stream(oracle, random.Random(seed), REQUESTS)
    share = seconds / (ROUNDS * len(BACKENDS) * RESTARTS)
    fills: Dict[str, List[Dict[str, Any]]] = {b: [] for b in BACKENDS}
    restarts: Dict[str, List[Dict[str, Any]]] = {b: [] for b in BACKENDS}
    setups: List[float] = []
    with workdir() as work:
        for r in range(ROUNDS):
            spawned_at = time.monotonic()
            daemon_args = [sys.executable, "-m", "repro.artifactd", "--port=0"]
            with spawned(daemon_args, work, f"artifactd{r}") as daemon:
                ready = daemon.read_json(60)
                if not ready.get("serving"):
                    raise BenchError(f"artifactd readiness line: {ready}")
                urls = {
                    "sqlite": str(work / f"round{r}.db"),
                    "remote": f"http://127.0.0.1:{ready['port']}",
                }
                for backend in BACKENDS:
                    fill_in = work / f"fill-{backend}.json"
                    write_inputs(
                        fill_in, oracle, [], trace=trace, seconds=0.0,
                        backend=backend, url=urls[backend],
                    )
                    report = run_child(
                        "fill", fill_in, work, f"fill{r}{backend}",
                        spawned_at if backend == BACKENDS[0] else 0.0,
                    )
                    if backend == BACKENDS[0]:
                        setups.append(report["setup_s"])
                    fills[backend].append(report)
                for backend in BACKENDS:
                    restart_in = work / f"restart-{backend}.json"
                    write_inputs(
                        restart_in, oracle, requests, trace=trace,
                        seconds=share, backend=backend, url=urls[backend],
                    )
                    for k in range(RESTARTS):
                        restarts[backend].append(
                            run_child(
                                "restart", restart_in, work,
                                f"restart{r}{backend}{k}",
                            )
                        )
                if daemon.terminate(30) != 0:
                    raise BenchError(f"artifactd exit: {daemon.stderr_tail()}")
    return _report(seed, seconds, trace, oracle, requests, fills, restarts, setups)


def _report(
    seed: int,
    seconds: float,
    trace: bool,
    oracle: uv.ConstantComplementOracle,
    requests: List[uv.Request],
    fills: Dict[str, List[Dict[str, Any]]],
    restarts: Dict[str, List[Dict[str, Any]]],
    setups: List[float],
) -> Dict[str, Any]:
    wrong = 0
    errors: List[str] = []
    every_fill = [r for b in BACKENDS for r in fills[b]]
    every_restart = [r for b in BACKENDS for r in restarts[b]]
    for report in every_fill + every_restart:
        w, e = check_child(oracle, requests if report["mode"] == "restart" else [], report)
        wrong += w
        errors.extend(e)
    for backend in BACKENDS:
        for report in restarts[backend]:
            built = {k: v for k, v in report["builds"].items() if v}
            if built:
                errors.append(f"{backend} restart built {built}")
        for report in fills[backend]:
            if report["backend"]["put_calls"] == 0:
                errors.append(f"{backend} fill wrote nothing")
    stream = stream_metrics(every_restart)
    updates = sum(len(r["outcomes"]) for r in every_restart)
    fill_s = {b: fmean([r["ready_s"] for r in fills[b]]) for b in BACKENDS}
    restart_s = {b: fmean([r["ready_s"] for r in restarts[b]]) for b in BACKENDS}
    figures = dict(stream)
    for b in BACKENDS:
        figures[f"{b}_fill_s"] = metric(
            fill_s[b], "s", samples=len(fills[b]),
            all=[r["ready_s"] for r in fills[b]],
        )
        figures[f"{b}_restart_s"] = metric(
            restart_s[b], "s", samples=len(restarts[b]),
            all=[r["ready_s"] for r in restarts[b]],
        )
    figures["store_bytes"] = metric(
        median([r["backend"]["put_bytes"] for r in every_fill]),
        "bytes",
        samples=len(every_fill),
    )
    ready = sum(fill_s.values()) + sum(restart_s.values())
    out: Dict[str, Any] = {
        "workload": "store-restart",
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": wrong == 0 and not errors,
        "errors": errors,
        "attempted": len(every_fill) + len(every_restart) + updates,
        "failed": 0,
        "metrics": {
            "update_ms": stream["update_mean_ms"],
            "ready_s": metric(
                ready, "s", samples=len(every_fill) + len(every_restart)
            ),
            "setup_s": metric(median(setups), "s", samples=len(setups)),
        },
        "figures": figures,
        "accounting": {
            "fills": len(every_fill),
            "restarts": len(every_restart),
            "updates": updates,
            "wrong_answers": wrong,
            "fill_builds": {b: fills[b][0]["builds"] for b in BACKENDS},
            "restart_disk_hits": {
                b: restarts[b][0]["disk_hits"] for b in BACKENDS
            },
        },
    }
    if trace:
        out["layers"] = layer_table(
            inprocess_layers(every_fill, every_restart, every_restart)
        )
    return out
