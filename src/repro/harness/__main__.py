"""Run every experiment and print the report: ``python -m repro.harness``.

``python -m repro.harness --markdown`` emits the per-experiment record
in the format used by ``EXPERIMENTS.md``.  ``--stats`` appends the
engine's artifact-cache counters: all requested experiments run through
one shared :class:`~repro.engine.engine.Engine`, so recurring universes
(the small ABCD chain of E8-E11, the two-unary universe of E7/E10/E12)
surface as cache hits rather than repeated enumerations.

``--deadline=MS`` bounds every derivation's wall-clock time (the
``REPRO_DEADLINE_MS`` environment variable supplies the same default,
range-checked as the flag is); an experiment whose derivations exceed
it is reported as a deadline failure instead of hanging the run.

``--workers=N`` services the experiments from N threads sharing the
one engine -- a live demonstration of the concurrency layer: repeated
universes coalesce into single builds (the ``coalesced`` counter in
``--stats``) instead of racing, and the report order stays
deterministic regardless of completion order.

``--backend=local|sqlite`` with ``--store-url=PATH`` selects the
artifact persistence backend (the ``REPRO_STORE_BACKEND`` /
``REPRO_STORE_URL`` environment variables spell the same thing);
re-running with a warm store turns every enumeration into a backend
hit, visible in ``--stats``.

``--load-gen --port=N`` drives a running update server (``python -m
repro.serving``) with the threaded load generator (``--clients``,
``--duration`` seconds, optional ``--deadline`` ms per request) and
prints the JSON :class:`~repro.serving.client.LoadReport`.

Any other ``--`` argument is rejected with exit status 2, as an unknown
experiment id is, rather than silently dropped; so is a numeric flag
whose value is not a number (``--workers=x``), naming the flag and the
type it takes, or lies outside its range (``--clients=0``), naming the
flag and the range: ``--workers`` and ``--clients`` take at least 1,
``--deadline`` at least 0, ``--duration`` more than 0, ``--port`` 1 to
65535.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro.engine.backends import create_backend
from repro.engine.engine import Engine
from repro.errors import (
    BackendConfigError,
    DeadlineConfigError,
    DeadlineExceededError,
    ReproError,
)
from repro.harness.experiments import ALL_EXPERIMENTS, run_experiment
from repro.resilience.guard import deadline_from_env


def _markdown(results) -> str:
    lines = []
    for result, elapsed in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"### {result.experiment_id}: {result.title}")
        lines.append("")
        lines.append(f"**Paper claim.** {result.paper_claim}.")
        lines.append("")
        lines.append(f"**Measured** ({status}, {elapsed:.2f}s):")
        lines.append("")
        for key, value in result.observations:
            lines.append(f"- {key}: `{value}`")
        lines.append("")
    return "\n".join(lines)


def _stats_report(engine: Engine) -> str:
    snapshot = engine.stats()
    artifacts = snapshot["artifacts"]
    memory = artifacts["memory"]
    backend = artifacts["backend"]
    leases = artifacts["leases"]
    lines = ["engine artifact cache:"]
    for kind, counters in memory.items():
        line = (
            f"  {kind}: {counters['hits']} hits, {counters['misses']} misses,"
            f" {counters['builds']} builds"
            f" ({counters['build_seconds']:.3f}s building)"
        )
        tier = dict(backend["kinds"].get(kind, {}))
        tier.update(leases.get(kind, {}))
        resilience = [
            f"{source[name]} {label}"
            for source, name, label in (
                (counters, "degradations", "degradations"),
                (counters, "deadline_hits", "deadline hits"),
                (tier, "disk_hits", "backend hits"),
                (tier, "corrupt_entries", "corrupt entries"),
                (tier, "io_retries", "I/O retries"),
                (counters, "coalesced_builds", "coalesced"),
                (tier, "lease_waits", "lease waits"),
                (tier, "lease_takeovers", "lease takeovers"),
                (tier, "lease_timeouts", "lease timeouts"),
            )
            if source.get(name)
        ]
        if resilience:
            line += f" [{', '.join(resilience)}]"
        lines.append(line)
    if backend["name"] != "none":
        location = backend.get("root") or backend.get("url") or ""
        line = f"  backend: {backend['name']}"
        if location:
            line += f" at {location}"
        if backend.get("sweep_reclaimed"):
            line += f" ({backend['sweep_reclaimed']} temp file(s) swept)"
        if backend.get("open_failures"):
            line += " [DEGRADED: open failed; running memory-only]"
        lines.append(line)
    elif backend.get("open_failures"):
        lines.append(
            "  backend: unavailable (open failed; running memory-only)"
        )
    breaker = snapshot["breaker"]
    if breaker["entries"]:
        lines.append(
            f"circuit breaker (threshold {breaker['threshold']}): "
            f"{breaker['open']} open circuit(s)"
        )
        for label, entry in breaker["entries"].items():
            lines.append(
                f"  {label}: {entry['state']}, "
                f"{entry['failures']} failure(s), {entry['trips']} trip(s)"
            )
    return "\n".join(lines)


#: Every flag :func:`main` reads; those ending in ``=`` take a value.
_FLAGS = (
    "--markdown",
    "--stats",
    "--load-gen",
    "--deadline=",
    "--workers=",
    "--backend=",
    "--store-url=",
    "--port=",
    "--host=",
    "--clients=",
    "--duration=",
)


def _unknown_flags(argv: list[str]) -> list[str]:
    """The ``--`` arguments that name no flag in :data:`_FLAGS`."""
    unknown: list[str] = []
    for arg in argv:
        name, equals, _value = arg.partition("=")
        if arg.startswith("--") and name + equals not in _FLAGS:
            unknown.append(arg)
    return unknown


#: The flags whose value is a number: its type and how to name it, then
#: a test of the values it admits and how to name them.
_NUMERIC_FLAGS: dict[str, tuple[type, str, Callable[[float], bool], str]] = {
    "deadline": (
        float,
        "a number of milliseconds",
        lambda v: v >= 0,
        "at least 0",
    ),
    "workers": (int, "an integer", lambda v: v >= 1, "at least 1"),
    "port": (int, "an integer", lambda v: 1 <= v <= 65535, "1 to 65535"),
    "clients": (int, "an integer", lambda v: v >= 1, "at least 1"),
    "duration": (float, "a number of seconds", lambda v: v > 0, "above 0"),
}


def _flag_value(argv: list[str], name: str) -> str | None:
    prefix = f"--{name}="
    for arg in argv:
        if arg.startswith(prefix):
            return arg.split("=", 1)[1]
    return None


def _numbers(argv: list[str]) -> tuple[dict[str, float], list[str]]:
    """The numeric flags given, converted, and one complaint for each
    value that does not convert (the flag and the type it takes) or
    lies outside the flag's range (the flag and the range)."""
    values: dict[str, float] = {}
    malformed: list[str] = []
    for name, (kind, expected, admits, bounds) in _NUMERIC_FLAGS.items():
        raw = _flag_value(argv, name)
        if raw is None:
            continue
        try:
            value = kind(raw)
        except ValueError:
            malformed.append(f"--{name}={raw} (expected {expected})")
            continue
        if admits(value):
            values[name] = value
        else:
            malformed.append(f"--{name}={raw} (expected {bounds})")
    return values, malformed


def _load_gen(argv: list[str], numbers: dict[str, float]) -> int:
    """Drive a running update server and print the load report."""
    import json

    from repro.serving.client import run_load
    from repro.serving.service import chain_service

    if "port" not in numbers:
        print("--load-gen requires --port=<running server's port>")
        return 2
    try:
        report = run_load(
            _flag_value(argv, "host") or "127.0.0.1",
            int(numbers["port"]),
            chain_service().sample_requests,
            clients=int(numbers.get("clients", 4)),
            duration_s=numbers.get("duration", 3.0),
            deadline_ms=numbers.get("deadline"),
        )
    except ReproError as exc:
        print(f"load generator failed: {exc}")
        return 1
    print(json.dumps(report.as_dict(), indent=2))
    return 0 if report.other_errors == 0 else 1


def _run_one(experiment_id: str, engine: Engine):
    """One experiment through the shared engine: ``(result, elapsed,
    error)`` where exactly one of *result*/*error* is set."""
    start = time.perf_counter()
    try:
        result = run_experiment(experiment_id.upper(), engine=engine)
    except DeadlineExceededError as exc:
        return None, time.perf_counter() - start, str(exc)
    return result, time.perf_counter() - start, None


def main(argv: list[str]) -> int:
    """Run the requested experiments (all by default)."""
    unknown_flags = _unknown_flags(argv)
    if unknown_flags:
        print(f"unknown flag(s): {', '.join(unknown_flags)}")
        print(f"known flags: {', '.join(_FLAGS)}")
        return 2
    numbers, malformed = _numbers(argv)
    if malformed:
        print(f"malformed flag value(s): {', '.join(malformed)}")
        return 2
    if "--load-gen" in argv:
        return _load_gen(argv, numbers)
    markdown = "--markdown" in argv
    show_stats = "--stats" in argv
    deadline_ms = numbers.get("deadline")
    workers = int(numbers.get("workers", 1))
    requested = [a for a in argv if not a.startswith("--")] or list(
        ALL_EXPERIMENTS
    )
    unknown = [a for a in requested if a.upper() not in ALL_EXPERIMENTS]
    if unknown:
        known = ", ".join(ALL_EXPERIMENTS)
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"known experiments: {known}")
        return 2
    backend_name = _flag_value(argv, "backend")
    try:
        backend = (
            create_backend(backend_name, _flag_value(argv, "store-url") or "")
            if backend_name is not None
            else None
        )
    except BackendConfigError as exc:
        print(f"backend configuration error: {exc}")
        return 2
    if deadline_ms is None:
        try:
            deadline_ms = deadline_from_env()
        except DeadlineConfigError as exc:
            print(f"deadline configuration error: {exc}")
            return 2
    engine = Engine(deadline_ms=deadline_ms, backend=backend)
    if workers == 1:
        outcomes = [_run_one(eid, engine) for eid in requested]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_one, eid, engine) for eid in requested
            ]
            outcomes = [future.result() for future in futures]
    failures = 0
    results = []
    for experiment_id, (result, elapsed, error) in zip(requested, outcomes):
        if error is not None:
            print(f"{experiment_id.upper()}: DEADLINE EXCEEDED -- {error}")
            print(f"  elapsed: {elapsed:.2f}s")
            print()
            failures += 1
            continue
        results.append((result, elapsed))
        if not markdown:
            print(result.summary())
            print(f"  elapsed: {elapsed:.2f}s")
            print()
        if not result.passed:
            failures += 1
    if markdown:
        print(_markdown(results))
        if show_stats:
            print(_stats_report(engine))
        return 1 if failures else 0
    if show_stats:
        print(_stats_report(engine))
        print()
    if failures:
        print(f"{failures} experiment(s) FAILED")
        return 1
    print(f"all {len(requested)} experiments passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
