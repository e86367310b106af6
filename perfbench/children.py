"""Driving ``inprocess.py`` children and checking what they report."""

from __future__ import annotations

import json
import time
from statistics import fmean
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import universe as uv
from common import BenchError, median, metric, percentile, python_child, spawned


def write_inputs(
    path: Path,
    oracle: uv.ConstantComplementOracle,
    requests: Sequence[uv.Request],
    **settings: Any,
) -> None:
    """The child's inputs: the universe, the requests in row form, and
    *settings* (``trace``, ``seconds``, ``backend``, ``url``)."""
    inputs = dict(settings)
    inputs["universe"] = oracle.universe.spec()
    inputs["requests"] = [
        {
            "view": r.view,
            "base": uv.rows_to_json(oracle.rows[r.base]),
            "target": uv.view_state_to_json(r.target),
        }
        for r in requests
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(inputs, handle)


def run_child(
    mode: str, inputs: Path, work: Path, tag: str, spawned_at: float = 0.0
) -> Dict[str, Any]:
    """Spawn one child, wait for it, and load its report."""
    output = work / f"{tag}.json"
    started = spawned_at or time.monotonic()
    args = python_child(
        "inprocess.py", mode, str(inputs), str(output), repr(started)
    )
    with spawned(args, work, tag) as child:
        code = child.wait(170)
        if code != 0:
            raise BenchError(f"{tag} exited {code}: {child.stderr_tail()}")
    with open(output, encoding="utf-8") as handle:
        return json.load(handle)


def check_child(
    oracle: uv.ConstantComplementOracle,
    requests: Sequence[uv.Request],
    report: Dict[str, Any],
) -> Tuple[int, List[str]]:
    """Wrong outcomes and structural problems in one child's report."""
    wrong = 0
    errors: List[str] = []
    tables = [uv.rows_from_json(rows) for rows in report["after_rows"]]
    for index, accepted, reason, after in report["outcomes"]:
        request = requests[index]
        rows = tables[after] if after is not None else None
        problem = uv.check_outcome(oracle, request.expect, accepted, reason, rows)
        if problem is not None:
            wrong += 1
            if len(errors) < 5:
                errors.append(f"{request.kind} on {request.view}: {problem}")
    s = report["structure"]
    if s["ldb"] != s["ldb_closed_form"] or not s["states_match"]:
        errors.append(f"{report['mode']}: LDB is not the closed-form state set")
    if (
        s["algebra_members"] != s["expected_members"]
        or s["algebra_atoms"] != s["expected_atoms"]
        or not s["algebra_boolean"]
    ):
        errors.append(f"{report['mode']}: algebra is not Boolean 2^(k-1): {s}")
    return wrong, errors


def stream_metrics(reports: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Update-stream figures pooled over several children: the mean,
    p50, p90 and p99 latency of every update, and updates per second
    of stream time."""
    pooled = [x * 1e3 for r in reports for x in r["latencies"]]
    elapsed = sum(r["elapsed_s"] for r in reports)
    n = {"samples": len(pooled)}
    return {
        "update_mean_ms": metric(fmean(pooled), "ms", **n),
        "update_p50_ms": metric(percentile(pooled, 0.5), "ms", **n),
        "update_p90_ms": metric(percentile(pooled, 0.9), "ms", **n),
        "update_p99_ms": metric(percentile(pooled, 0.99), "ms", **n),
        "update_rps": metric(len(pooled) / elapsed, "1/s", **n),
    }


def inprocess_layers(
    built: List[Dict[str, Any]],
    updaters: List[Dict[str, Any]],
    restarts: List[Dict[str, Any]],
) -> Dict[str, float]:
    """Per-layer values from in-process children: the build split and
    backend writes from *built* (cold builds, or fills), the update path
    from *updaters*, and store and backend reads from *restarts*."""
    from tracing import build_layers, merge, update_layers

    updates = sum(len(r["outcomes"]) for r in updaters)
    values = update_layers(
        merge([r["update_spans"] for r in updaters]), updates
    )
    values.update(
        build_layers(merge([r["build_split"] for r in built]), len(built))
    )
    values["engine.store.lookups_per_update"] = median(
        [r["lookups_per_update"] for r in updaters]
    )
    values["engine.store.builds"] = median(
        [float(sum(r["builds"].values())) for r in built]
    )
    backed = [r for r in restarts if "backend" in r]
    fills = [r for r in built if "backend" in r]
    values["engine.store.disk_hits"] = (
        median([float(sum(r["disk_hits"].values())) for r in backed]) if backed else 0.0
    )

    def mean(rows: List[Dict[str, Any]], field: str, scale: float = 1.0) -> float:
        return sum(r["backend"][field] for r in rows) / len(rows) * scale if rows else 0.0

    values["engine.backends.put_ms"] = mean(fills, "put_s", 1e3)
    values["engine.backends.put_bytes"] = mean(fills, "put_bytes")
    values["engine.backends.put_calls"] = mean(fills, "put_calls")
    values["engine.backends.lease_ms"] = mean(fills, "lease_s", 1e3)
    values["engine.backends.get_ms"] = mean(backed, "get_s", 1e3)
    values["engine.backends.get_bytes"] = mean(backed, "get_bytes")
    values["engine.backends.get_calls"] = mean(backed, "get_calls")
    load = [
        r["build_spans"].get("engine.store.get_or_build", (0.0, 0))[0] * 1e3
        for r in backed
    ]
    values["engine.store.load_ms"] = sum(load) / len(load) if load else 0.0
    for name in (
        "serving.protocol.parse_us",
        "serving.protocol.encode_us",
        "serving.admission.wait_us",
        "serving.session.hop_us",
        "serving.server.other_us",
    ):
        values[name] = 0.0
    return values
