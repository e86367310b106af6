"""End-to-end server behaviour: real sockets, real HTTP, one process.

Each test runs the asyncio server on the test's own event loop and
drives it with :class:`~repro.serving.client.ServingClient` calls made
from executor threads (the same split the examples and benchmarks
use).  The SIGTERM contract is tested against a genuine
``python -m repro.serving`` subprocess at the bottom of the file.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ConfigError, WarmStartError
from repro.resilience.faults import FaultPlan, FaultRule, inject
from repro.serving.client import ServingClient, run_load
from repro.serving.protocol import UpdateRequest, outcome_to_wire
from repro.serving.server import UpdateServer
from repro.serving import warmstart
from repro.serving.warmstart import sibling_warm_start

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_with_server(spec, scenario, **server_kwargs):
    """Start an UpdateServer, run ``scenario(server, call)``, stop it.

    ``call`` runs a blocking client function in an executor thread so
    the event loop keeps serving while the "remote" client blocks.
    """

    async def main():
        server = UpdateServer(spec, **server_kwargs)
        await server.start()
        loop = asyncio.get_running_loop()

        async def call(fn, *args):
            return await loop.run_in_executor(None, fn, *args)

        try:
            return await scenario(server, call)
        finally:
            await server.stop()

    return asyncio.run(main())


def gate_warmup(server):
    """Replace the server's warm-up with one parked on an event.

    Admission and routing live on the loop and never need the warm
    session, so a gated warm-up makes "server is busy compiling"
    a deterministic state instead of a race.
    """
    gate = asyncio.Event()
    original = server.session.warmup

    async def gated(views, candidates=()):
        await gate.wait()
        await original(views, candidates)

    server.session.warmup = gated
    return gate


class TestHappyPath:
    def test_wait_submit_returns_the_outcome(self, spec):
        async def scenario(server, call):
            await server._warmed.wait()
            client = ServingClient("127.0.0.1", server.port)
            try:
                return await call(
                    client.submit, spec.sample_requests[0], True
                )
            finally:
                client.close()

        reply = run_with_server(spec, scenario)
        assert reply.status == 200
        assert reply.body["status"] == "done"
        assert reply.body["outcome"]["accepted"] is True
        assert reply.retry_after_s is None

    def test_async_submit_then_poll(self, spec):
        async def scenario(server, call):
            await server._warmed.wait()
            client = ServingClient("127.0.0.1", server.port)
            try:
                ticket = await call(
                    client.submit, spec.sample_requests[1], False
                )
                assert ticket.status == 202
                assert ticket.body["status"] == "queued"
                request_id = ticket.body["id"]
                while True:
                    polled = await call(client.get_outcome, request_id)
                    if polled.body.get("status") == "done":
                        return polled
            finally:
                client.close()

        reply = run_with_server(spec, scenario)
        assert reply.status == 200
        assert reply.body["outcome"]["accepted"] is True

    def test_formal_rejection_travels_as_a_200(self, spec):
        async def scenario(server, call):
            await server._warmed.wait()
            client = ServingClient("127.0.0.1", server.port)
            try:
                return await call(
                    client.submit, spec.sample_requests[2], True
                )
            finally:
                client.close()

        reply = run_with_server(spec, scenario)
        assert reply.status == 200
        assert reply.body["outcome"]["accepted"] is False
        assert reply.body["outcome"]["reason"] == "illegal-view-state"


class TestEmptyRelationsOverHttp:
    def test_empty_base_gets_the_in_process_outcome(self, spec):
        """An empty row list on the wire decodes at its declared arity,
        so the empty base state gets the outcome ``Session.update``
        gives in process, on every served view."""
        empty = spec.schema.empty_instance()
        requests = []
        for view in spec.views:
            targets = [view.apply(empty, spec.assignment)] + [
                sample.target
                for sample in spec.sample_requests
                if sample.view == view.name
            ]
            requests += [
                UpdateRequest(view.name, empty, target) for target in targets
            ]

        async def scenario(server, call):
            await server._warmed.wait()
            client = ServingClient("127.0.0.1", server.port)
            try:
                replies = [
                    await call(client.submit, request, True)
                    for request in requests
                ]
            finally:
                client.close()
            session = server.session.session
            local = [
                session.update(request.view, request.base, request.target)
                for request in requests
            ]
            return replies, local

        replies, local = run_with_server(spec, scenario)
        for reply, outcome in zip(replies, local):
            assert reply.status == 200
            served = dict(reply.body["outcome"])
            expected = outcome_to_wire(outcome)
            served.pop("elapsed_ms")
            expected.pop("elapsed_ms")
            assert served == expected
        assert {outcome.view_name for outcome in local} == {
            view.name for view in spec.views
        }
        assert not any(
            outcome.reason == "illegal-base-state" for outcome in local
        )


class TestProtocolErrors:
    def test_malformed_body_is_a_400(self, spec):
        async def scenario(server, call):
            client = ServingClient("127.0.0.1", server.port)
            try:
                return await call(
                    client.request,
                    "POST",
                    "/submit-update",
                    {"view": 7},
                )
            finally:
                client.close()

        reply = run_with_server(spec, scenario)
        assert reply.status == 400
        assert reply.body["error"] == "RequestProtocolError"

    def test_unknown_route_is_a_404(self, spec):
        async def scenario(server, call):
            client = ServingClient("127.0.0.1", server.port)
            try:
                return await call(client.request, "GET", "/nope")
            finally:
                client.close()

        assert run_with_server(spec, scenario).status == 404

    def test_get_outcome_without_id_is_a_400(self, spec):
        async def scenario(server, call):
            client = ServingClient("127.0.0.1", server.port)
            try:
                return await call(client.request, "GET", "/get-outcome")
            finally:
                client.close()

        assert run_with_server(spec, scenario).status == 400

    def test_unknown_ticket_is_a_404(self, spec):
        async def scenario(server, call):
            client = ServingClient("127.0.0.1", server.port)
            try:
                return await call(client.get_outcome, "r99999999")
            finally:
                client.close()

        assert run_with_server(spec, scenario).status == 404


class TestOverload:
    def test_full_queue_sheds_503_with_retry_after(self, spec):
        """With warm-up gated, no worker drains the queue, so the
        bound is exact: depth 1 admits one and sheds the second."""

        async def scenario(server, call):
            gate = gate_warmup(server)
            client = ServingClient("127.0.0.1", server.port)
            try:
                first = await call(
                    client.submit, spec.sample_requests[0], False
                )
                second = await call(
                    client.submit, spec.sample_requests[0], False
                )
                health = await call(client.healthz)
                gate.set()
                while True:
                    polled = await call(
                        client.get_outcome, first.body["id"]
                    )
                    if polled.body.get("status") == "done":
                        break
                return first, second, health, polled
            finally:
                client.close()

        first, second, health, polled = run_with_server(
            spec, scenario, max_inflight=1, queue_depth=1
        )
        assert first.status == 202
        assert second.status == 503
        assert second.body["error"] == "ServerOverloadedError"
        assert second.body["retry_after_ms"] >= 50.0
        assert second.retry_after_s >= 1.0  # the header travelled
        assert health.body["status"] == "warming"
        assert polled.body["outcome"]["accepted"] is True

    def test_load_generator_sees_no_untyped_errors(self, spec):
        async def scenario(server, call):
            await server._warmed.wait()
            return await call(
                run_load,
                "127.0.0.1",
                server.port,
                spec.sample_requests,
                2,
                1.0,
            )

        report = run_with_server(
            spec, scenario, max_inflight=2, queue_depth=4
        )
        assert report.serviced > 0
        assert report.other_errors == 0
        assert report.requests == (
            report.serviced + report.shed_503 + report.deadline_504
        )

    def test_load_generator_honors_retry_after(self, spec):
        """Shed clients back off by the server's hint, capped.

        Four clients against one token and a depth-1 queue shed
        constantly; each 503 carries a Retry-After, and the generator
        sleeps ``min(hint, cap)`` before its next attempt -- counted,
        so the report proves the backoff happened instead of the
        generator hammering the shedding server.
        """

        async def scenario(server, call):
            await server._warmed.wait()
            return await call(
                run_load,
                "127.0.0.1",
                server.port,
                spec.sample_requests,
                4,      # clients
                1.0,    # duration_s
                None,   # deadline_ms
                0.05,   # retry_after_cap_s
            )

        report = run_with_server(
            spec, scenario, max_inflight=1, queue_depth=1
        )
        assert report.shed_503 > 0
        assert report.honored_waits > 0
        assert report.honored_waits <= report.shed_503
        # Every honoured pause was bounded by the cap.
        assert report.honored_wait_s <= report.honored_waits * 0.05 + 1e-6
        as_dict = report.as_dict()
        assert as_dict["honored_waits"] == report.honored_waits
        assert as_dict["honored_wait_s"] == round(report.honored_wait_s, 3)


class TestHealth:
    def test_healthz_answers_in_every_phase(self, spec):
        async def scenario(server, call):
            gate = gate_warmup(server)
            client = ServingClient("127.0.0.1", server.port)
            try:
                warming = await call(client.healthz)
                gate.set()
                await server._warmed.wait()
                ok = await call(client.healthz)
                server.request_drain()
                draining = await call(client.healthz)
                return warming, ok, draining
            finally:
                client.close()

        warming, ok, draining = run_with_server(spec, scenario)
        assert (warming.status, warming.body["status"]) == (200, "warming")
        assert (ok.status, ok.body["status"]) == (200, "ok")
        assert (draining.status, draining.body["status"]) == (
            503,
            "draining",
        )
        assert ok.body["engine"]["open_circuits"] == 0

    def test_stats_exposes_admission_and_engine(self, spec):
        async def scenario(server, call):
            await server._warmed.wait()
            client = ServingClient("127.0.0.1", server.port)
            try:
                await call(client.submit, spec.sample_requests[0], True)
                return await call(client.stats)
            finally:
                client.close()

        reply = run_with_server(spec, scenario)
        assert reply.status == 200
        assert reply.body["warmed"] is True
        assert reply.body["warmup_seconds"] > 0
        assert reply.body["admission"]["completed"] == 1
        assert set(reply.body["engine"]) == {"artifacts", "breaker"}

    def test_failed_warmup_is_a_typed_503_everywhere(self, spec):
        async def scenario(server, call):
            async def broken(views, candidates=()):
                raise RuntimeError("compile exploded")

            # The warm-up task is scheduled but has not run yet (no
            # await separates start() from here), so the patch lands
            # before the first compile attempt.
            server.session.warmup = broken
            await server._warmed.wait()
            client = ServingClient("127.0.0.1", server.port)
            try:
                health = await call(client.healthz)
                submit = await call(
                    client.submit, spec.sample_requests[0], True
                )
                return health, submit
            finally:
                client.close()

        health, submit = run_with_server(spec, scenario)
        assert (health.status, health.body["status"]) == (503, "failed")
        assert submit.status == 503
        assert "warm-up failed" in submit.body["message"]


class TestDrain:
    def test_drain_finishes_admitted_work(self, spec):
        async def scenario(server, call):
            await server._warmed.wait()
            client = ServingClient("127.0.0.1", server.port)
            try:
                tickets = [
                    await call(
                        client.submit, spec.sample_requests[0], False
                    )
                    for _ in range(3)
                ]
                server.request_drain()
                shed = await call(
                    client.submit, spec.sample_requests[0], False
                )
                report = await server.drain()
                outcomes = [
                    await call(client.get_outcome, ticket.body["id"])
                    for ticket in tickets
                ]
                return tickets, shed, report, outcomes
            finally:
                client.close()

        tickets, shed, report, outcomes = run_with_server(
            spec, scenario, max_inflight=1, queue_depth=4
        )
        assert all(ticket.status == 202 for ticket in tickets)
        assert shed.status == 503
        assert shed.body["error"] == "ServerDrainingError"
        assert report["graceful"] is True
        assert report["dropped_inflight"] == 0
        assert report["dropped_queued"] == 0
        assert report["drain_fault"] is None
        # Every admitted ticket finished and stayed pollable.
        assert all(
            outcome.body.get("status") == "done" for outcome in outcomes
        )


class TestChaos:
    def test_admit_fault_is_a_counted_500_and_serving_continues(
        self, spec
    ):
        async def scenario(server, call):
            await server._warmed.wait()
            client = ServingClient("127.0.0.1", server.port)
            plan = FaultPlan(
                seed=7, rules=(FaultRule("server.admit", times=1),)
            )
            try:
                with inject(plan):
                    faulted = await call(
                        client.submit, spec.sample_requests[0], True
                    )
                after = await call(
                    client.submit, spec.sample_requests[0], True
                )
                return faulted, after, server.unexpected_errors
            finally:
                client.close()

        faulted, after, unexpected = run_with_server(spec, scenario)
        assert faulted.status == 500
        assert faulted.body["error"] == "InjectedFault"
        assert unexpected == 1
        assert after.status == 200  # the server survived the fault

    def test_drain_fault_is_absorbed_into_the_report(self, spec):
        async def scenario(server, call):
            await server._warmed.wait()
            plan = FaultPlan(
                seed=7, rules=(FaultRule("server.drain", times=1),)
            )
            with inject(plan):
                return await server.drain()

        report = run_with_server(spec, scenario)
        assert report["graceful"] is True
        assert report["drain_fault"] is not None
        assert "InjectedFault" in report["drain_fault"]


class TestSigterm:
    def test_sigterm_drains_gracefully_with_zero_drops(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serving", "--port=0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(tmp_path),  # no repo files needed at runtime
        )
        try:
            ready_line = process.stdout.readline()
            ready = json.loads(ready_line)
            assert ready["serving"] is True

            client = ServingClient("127.0.0.1", ready["port"])
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if client.healthz().body["status"] == "ok":
                    break
                time.sleep(0.05)
            from repro.serving.service import chain_service

            submitted = client.submit(
                chain_service().sample_requests[0], wait=False
            )
            assert submitted.status == 202
            client.close()

            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

        assert process.returncode == 0, stderr
        report = json.loads(stdout.strip().splitlines()[-1])["drain"]
        assert report["graceful"] is True
        assert report["dropped_inflight"] == 0
        assert report["dropped_queued"] == 0


class TestConfiguration:
    @pytest.mark.parametrize(
        "knob, raw",
        [("REPRO_SERVER_DEADLINE_MS", "-5"), ("REPRO_SERVER_DRAIN_MS", "nan")],
    )
    def test_bad_knob_refused_at_construction(
        self, spec, monkeypatch, knob, raw
    ):
        """A default deadline of -5 ms would make every served update a
        504, and a NaN drain budget would never run out."""
        monkeypatch.setenv(knob, raw)
        with pytest.raises(ConfigError, match=re.escape(f"{knob}={raw!r}")):
            UpdateServer(spec)

    def test_bad_knob_under_the_cli_is_one_line(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["REPRO_SERVER_DRAIN_MS"] = "nan"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.serving", "--port=0"],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(tmp_path),
            timeout=120,
        )
        assert completed.returncode == 2
        assert completed.stdout == ""
        assert completed.stderr.splitlines() == [
            "configuration error: REPRO_SERVER_DRAIN_MS='nan': "
            "expected a number at least 0"
        ]


class TestWarmStart:
    def test_sibling_publishes_a_store_the_server_can_reuse(
        self, tmp_path
    ):
        url = str(tmp_path / "artifacts.db")
        sibling_warm_start(url)
        assert Path(url).exists()

    def test_sibling_crash_is_a_typed_error(self, monkeypatch):
        def crash(url):
            raise RuntimeError("builder died")

        monkeypatch.setattr(warmstart, "_sibling_build", crash)
        with pytest.raises(WarmStartError) as excinfo:
            sibling_warm_start("/tmp/never-created.db")
        assert "died before publishing" in str(excinfo.value)

    def test_sibling_timeout_is_a_typed_error(self, monkeypatch):
        def straggle(url):
            time.sleep(30)

        monkeypatch.setattr(warmstart, "_sibling_build", straggle)
        with pytest.raises(WarmStartError) as excinfo:
            sibling_warm_start("/tmp/never-created.db", timeout_s=0.2)
        assert "budget" in str(excinfo.value)

    def test_clean_exit_without_a_store_is_a_typed_error(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(warmstart, "_sibling_build", lambda url: None)
        url = str(tmp_path / "never-written.db")
        with pytest.raises(WarmStartError) as excinfo:
            sibling_warm_start(url)
        assert "published no artifact database" in str(excinfo.value)
