"""Admission control: bounded queues, priorities, breaker gate, drain.

The controller is asyncio-native, so every test drives it inside
``asyncio.run`` -- no sockets, no threads, no sleeps (a fake clock and
explicit ``task_done`` calls stand in for real workers).
"""

import asyncio

import pytest

from repro.errors import (
    ConfigError,
    ServerDrainingError,
    ServerOverloadedError,
)
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultPlan, FaultRule, inject
from repro.serving.admission import (
    AdmissionController,
    RETRY_AFTER_CEILING_MS,
    RETRY_AFTER_FLOOR_MS,
    Ticket,
)
from repro.serving.protocol import UpdateRequest


def make_request(priority="normal"):
    # Admission never inspects the instances; sentinels keep this unit.
    return UpdateRequest(
        view="Γ°AB", base=None, target=None, priority=priority
    )


def make_ticket(n=0, priority="normal"):
    return Ticket(
        request_id=f"r{n:08d}", request=make_request(priority)
    )


def run(coro):
    return asyncio.run(coro)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestBoundedQueues:
    def test_admit_then_serve_in_priority_order(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=4
            )
            for n, priority in enumerate(["low", "normal", "high"]):
                controller.admit(make_ticket(n, priority))
            order = []
            for _ in range(3):
                ticket = await controller.next_ticket()
                order.append(ticket.request.priority)
                controller.task_done(True, 0.01)
            return order

        assert run(scenario()) == ["high", "normal", "low"]

    def test_full_queue_sheds_typed_with_retry_hint(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=2
            )
            controller.admit(make_ticket(0))
            controller.admit(make_ticket(1))
            with pytest.raises(ServerOverloadedError) as excinfo:
                controller.admit(make_ticket(2))
            return controller, excinfo.value

        controller, error = run(scenario())
        assert error.queue == "normal"
        assert error.depth == 2
        assert error.limit == 2
        assert error.retry_after_ms >= 50.0
        assert controller.shed_overload == 1
        assert controller.queued == 2  # bounded: the shed never entered

    def test_priorities_are_separately_bounded(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=1
            )
            controller.admit(make_ticket(0, "normal"))
            controller.admit(make_ticket(1, "high"))  # own queue: fits
            with pytest.raises(ServerOverloadedError):
                controller.admit(make_ticket(2, "high"))
            return controller.queued

        assert run(scenario()) == 2

    def test_high_water_mark_tracks_backlog(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=8
            )
            for n in range(5):
                controller.admit(make_ticket(n))
            while await asyncio.wait_for(anext_ticket(controller), 1):
                controller.task_done(True, 0.0)
            return controller.queue_high_water

        async def anext_ticket(controller):
            if controller.queued == 0:
                return None
            return await controller.next_ticket()

        assert run(scenario()) == 5


class TestLimits:
    @pytest.mark.parametrize(
        "limits", [{"queue_depth": 0}, {"max_inflight": 0}]
    )
    def test_limit_below_one_is_refused(self, limits):
        """A queue of depth 0 would shed the first request on an empty
        queue; no tokens would serve nothing."""
        with pytest.raises(ConfigError, match="AdmissionController"):
            AdmissionController(**limits)


class TestRetryHints:
    def test_hint_scales_with_backlog_and_ewma(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=2, queue_depth=4
            )
            # Teach the EWMA a 100ms service time.
            controller.admit(make_ticket(0))
            await controller.next_ticket()
            controller.task_done(True, 0.1)
            empty_hint = controller._retry_after_ms()
            for n in range(1, 5):
                controller.admit(make_ticket(n))
            full_hint = controller._retry_after_ms()
            return empty_hint, full_hint

        empty_hint, full_hint = run(scenario())
        assert full_hint > empty_hint
        assert empty_hint >= 50.0


class TestBreakerGate:
    def _tripped_breaker(self, clock):
        breaker = CircuitBreaker(threshold=1, cooldown_ms=1_000, clock=clock)
        breaker.record_failure("space", "fp")
        return breaker

    def test_fail_fast_sheds_while_cooling(self):
        async def scenario():
            clock = FakeClock()
            breaker = self._tripped_breaker(clock)
            controller = AdmissionController(
                max_inflight=1, queue_depth=4, breaker=breaker
            )
            with pytest.raises(ServerOverloadedError) as excinfo:
                controller.admit(make_ticket(0))
            return controller, excinfo.value

        controller, error = run(scenario())
        assert error.queue == "breaker"
        assert 0 < error.retry_after_ms <= 1_000
        assert controller.shed_breaker == 1
        assert controller.queued == 0

    def test_fail_fast_admits_after_cooldown_for_the_probe(self):
        async def scenario():
            clock = FakeClock()
            breaker = self._tripped_breaker(clock)
            controller = AdmissionController(
                max_inflight=1, queue_depth=4, breaker=breaker
            )
            clock.now = 2.0  # cooldown elapsed: the probe must run
            controller.admit(make_ticket(0))
            return controller.queued

        assert run(scenario()) == 1


class TestDrain:
    def test_draining_sheds_new_admissions_typed(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=4
            )
            controller.start_drain()
            with pytest.raises(ServerDrainingError):
                controller.admit(make_ticket(0))
            return controller.shed_draining

        assert run(scenario()) == 1

    def test_admitted_work_finishes_before_drained_reports(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=4
            )
            controller.admit(make_ticket(0))
            controller.admit(make_ticket(1))

            async def worker():
                while True:
                    ticket = await controller.next_ticket()
                    if ticket is None:
                        return
                    await asyncio.sleep(0.01)
                    controller.task_done(True, 0.01)

            task = asyncio.create_task(worker())
            graceful = await controller.drained(timeout_s=5.0)
            await asyncio.wait_for(task, 5.0)
            return graceful, controller.completed, controller.queued

        graceful, completed, queued = run(scenario())
        assert graceful is True
        assert completed == 2  # zero dropped: both queued tickets ran
        assert queued == 0

    def test_drain_deadline_reports_false_not_wedge(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=4
            )
            controller.admit(make_ticket(0))
            # No worker ever runs: the backlog cannot clear.
            return await asyncio.wait_for(
                controller.drained(timeout_s=0.05), 5.0
            )

        assert run(scenario()) is False

    def test_idle_drain_is_immediately_graceful(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=4
            )
            return await controller.drained(timeout_s=0.05)

        assert run(scenario()) is True

    def test_parked_workers_observe_the_drain(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=4
            )

            async def worker():
                return await controller.next_ticket()

            task = asyncio.create_task(worker())
            await asyncio.sleep(0.01)  # park the worker on the queue
            controller.start_drain()
            return await asyncio.wait_for(task, 5.0)

        assert run(scenario()) is None


class TestFaultPoint:
    def test_injected_admit_fault_does_not_corrupt_the_queue(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=4
            )
            plan = FaultPlan(
                seed=7, rules=(FaultRule("server.admit", times=1),)
            )
            with inject(plan):
                with pytest.raises(Exception):
                    controller.admit(make_ticket(0))
                controller.admit(make_ticket(1))  # rule exhausted
            return controller.queued, controller.admitted

        queued, admitted = run(scenario())
        assert queued == 1
        assert admitted == 1


class TestSnapshot:
    def test_snapshot_is_json_ready_and_complete(self):
        import json

        async def scenario():
            controller = AdmissionController(
                max_inflight=2, queue_depth=4
            )
            controller.admit(make_ticket(0))
            return controller.snapshot()

        snapshot = run(scenario())
        json.dumps(snapshot)
        for field in (
            "max_inflight",
            "queue_depth",
            "queued",
            "inflight",
            "draining",
            "admitted",
            "completed",
            "failed",
            "shed_overload",
            "shed_draining",
            "shed_breaker",
            "queue_high_water",
            "service_ewma_ms",
            "service_ewma_seeded",
            "service_ewma_observed",
        ):
            assert field in snapshot


class TestEwmaSeeding:
    def test_seed_primes_the_hint_before_any_completion(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=4
            )
            controller.seed_service_ms(400.0)
            return controller.snapshot(), controller._retry_after_ms()

        snapshot, hint = run(scenario())
        assert snapshot["service_ewma_ms"] == 400.0
        assert snapshot["service_ewma_seeded"] is True
        assert snapshot["service_ewma_observed"] is False
        assert hint == 400.0  # backlog of 1 over 1 token: one period

    def test_seed_is_clamped_to_the_hint_bounds(self):
        async def scenario():
            low = AdmissionController(max_inflight=1, queue_depth=4)
            low.seed_service_ms(1.0)
            high = AdmissionController(max_inflight=1, queue_depth=4)
            high.seed_service_ms(10_000_000.0)
            return low.snapshot(), high.snapshot()

        low, high = run(scenario())
        assert low["service_ewma_ms"] == RETRY_AFTER_FLOOR_MS
        assert high["service_ewma_ms"] == RETRY_AFTER_CEILING_MS

    def test_first_observation_replaces_the_seed_outright(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=4
            )
            controller.seed_service_ms(5_000.0)
            controller.admit(make_ticket(0))
            await controller.next_ticket()
            controller.task_done(True, 0.1)  # the first *real* datum
            return controller.snapshot()

        snapshot = run(scenario())
        # 100ms, not a fold of 5000ms and 100ms: placeholders get no
        # weight once real traffic exists.
        assert snapshot["service_ewma_ms"] == 100.0
        assert snapshot["service_ewma_observed"] is True

    def test_late_seeds_are_ignored_after_real_traffic(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=4
            )
            controller.admit(make_ticket(0))
            await controller.next_ticket()
            controller.task_done(True, 0.1)
            controller.seed_service_ms(9_000.0)
            return controller.snapshot()

        snapshot = run(scenario())
        assert snapshot["service_ewma_ms"] == 100.0
        assert snapshot["service_ewma_seeded"] is False

    def test_non_positive_seeds_are_ignored(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=4
            )
            controller.seed_service_ms(0.0)
            controller.seed_service_ms(-10.0)
            return controller.snapshot()

        snapshot = run(scenario())
        assert snapshot["service_ewma_seeded"] is False


class TestRetryAfterClamp:
    def test_hint_never_exceeds_the_ceiling(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=1, queue_depth=8
            )
            # One pathological observation: a 5-minute cold build.
            controller.admit(make_ticket(0))
            await controller.next_ticket()
            controller.task_done(True, 300.0)
            for n in range(1, 9):
                controller.admit(make_ticket(n))
            return controller._retry_after_ms()

        assert run(scenario()) == RETRY_AFTER_CEILING_MS

    def test_hint_never_undershoots_the_floor(self):
        async def scenario():
            controller = AdmissionController(
                max_inflight=16, queue_depth=4
            )
            controller.admit(make_ticket(0))
            await controller.next_ticket()
            controller.task_done(True, 0.0001)  # a 0.1ms service time
            return controller._retry_after_ms()

        assert run(scenario()) == RETRY_AFTER_FLOOR_MS
