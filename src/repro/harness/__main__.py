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

Unknown experiment ids exit with status 2.  So does any other ``--``
argument, or a numeric flag that does not parse or lies outside its
range (``--workers=x``, ``--clients=0``; see :mod:`repro.settings`),
as argparse's usage error naming the flag, the value and the range;
and so does a ``REPRO_*`` variable out of range, as one
``configuration error`` line.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine.backends import create_backend
from repro.engine.engine import Engine
from repro.errors import (
    BackendConfigError,
    ConfigError,
    DeadlineExceededError,
    ReproError,
)
from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    render_observation,
    run_experiment,
)
from repro.settings import (
    CLIENTS,
    DEADLINE_MS,
    DURATION_S,
    PEER_PORT,
    WORKERS,
    flag,
    read,
)


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
            lines.append(f"- {key}: `{render_observation(value)}`")
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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Run the paper's experiments and print the report.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="ID", help="default: all"
    )
    parser.add_argument(
        "--markdown", action="store_true", help="EXPERIMENTS.md format"
    )
    parser.add_argument(
        "--stats", action="store_true", help="engine cache counters"
    )
    parser.add_argument(
        "--load-gen",
        action="store_true",
        help="drive the update server at --host and --port instead",
    )
    parser.add_argument(
        "--deadline",
        type=flag(DEADLINE_MS),
        metavar="MS",
        help="per derivation, or per request with --load-gen",
    )
    parser.add_argument(
        "--workers", type=flag(WORKERS), default=WORKERS.default
    )
    parser.add_argument("--backend", help="local, sqlite or remote")
    parser.add_argument("--store-url", default="")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=flag(PEER_PORT))
    parser.add_argument(
        "--clients", type=flag(CLIENTS), default=CLIENTS.default
    )
    parser.add_argument(
        "--duration",
        type=flag(DURATION_S),
        default=DURATION_S.default,
        metavar="SECONDS",
    )
    return parser


def _load_gen(args: argparse.Namespace) -> int:
    """Drive a running update server and print the load report."""
    import json

    from repro.serving.client import run_load
    from repro.serving.service import chain_service

    if args.port is None:
        print("--load-gen requires --port=<running server's port>")
        return 2
    try:
        report = run_load(
            args.host,
            args.port,
            chain_service().sample_requests,
            clients=args.clients,
            duration_s=args.duration,
            deadline_ms=args.deadline,
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
    """Run the requested experiments (all by default).

    A flag argparse refuses -- unknown, or a value outside its range --
    exits with status 2 through argparse's usage error.
    """
    args = _parser().parse_intermixed_args(argv)
    if args.load_gen:
        return _load_gen(args)
    requested = args.experiments or list(ALL_EXPERIMENTS)
    unknown = [a for a in requested if a.upper() not in ALL_EXPERIMENTS]
    if unknown:
        known = ", ".join(ALL_EXPERIMENTS)
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"known experiments: {known}")
        return 2
    try:
        deadline_ms = read(DEADLINE_MS, args.deadline)
    except ConfigError as exc:
        print(f"deadline configuration error: {exc}")
        return 2
    try:
        backend = (
            create_backend(args.backend, args.store_url)
            if args.backend is not None
            else None
        )
        engine = Engine(deadline_ms=deadline_ms, backend=backend)
        if args.workers == 1:
            outcomes = [_run_one(eid, engine) for eid in requested]
        else:
            with ThreadPoolExecutor(max_workers=args.workers) as pool:
                futures = [
                    pool.submit(_run_one, eid, engine) for eid in requested
                ]
                outcomes = [future.result() for future in futures]
    except BackendConfigError as exc:
        print(f"backend configuration error: {exc}")
        return 2
    except ConfigError as exc:
        # A knob read as the engine is built or runs: the breaker's,
        # the lease TTL, the remote backend's timeout.
        print(f"configuration error: {exc}")
        return 2
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
        if not args.markdown:
            print(result.summary())
            print(f"  elapsed: {elapsed:.2f}s")
            print()
        if not result.passed:
            failures += 1
    if args.markdown:
        print(_markdown(results))
        if args.stats:
            print(_stats_report(engine))
        return 1 if failures else 0
    if args.stats:
        print(_stats_report(engine))
        print()
    if failures:
        print(f"{failures} experiment(s) FAILED")
        return 1
    print(f"all {len(requested)} experiments passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
