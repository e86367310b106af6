"""Unit tests for :mod:`repro.resilience.guard`."""

import pytest

from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    ReproError,
    ResilienceError,
)
from repro.resilience.guard import (
    DEADLINE_ENV_VAR,
    _CLOCK_CHECK_EVERY,
    ExecutionGuard,
    current_guard,
    deadline_from_env,
    guarded,
)


class FakeClock:
    """A manually advanced monotonic clock (seconds)."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestStepBudget:
    def test_trips_exactly_past_the_budget(self):
        guard = ExecutionGuard(max_steps=10)
        for _ in range(10):
            guard.tick()
        with pytest.raises(DeadlineExceededError) as info:
            guard.tick()
        assert info.value.steps == 11
        assert info.value.max_steps == 10

    def test_batched_ticks_count_their_weight(self):
        guard = ExecutionGuard(max_steps=10)
        with pytest.raises(DeadlineExceededError):
            guard.tick(steps=11)

    def test_zero_budget_trips_on_first_tick(self):
        guard = ExecutionGuard(max_steps=0)
        with pytest.raises(DeadlineExceededError):
            guard.tick()


class TestWallClock:
    def test_clock_checked_in_batches(self):
        clock = FakeClock()
        guard = ExecutionGuard(deadline_ms=1.0, clock=clock)
        clock.advance(10.0)  # way past the deadline
        # No trip until the batched clock check comes due.
        for _ in range(_CLOCK_CHECK_EVERY - 1):
            guard.tick()
        with pytest.raises(DeadlineExceededError) as info:
            guard.tick()
        assert info.value.deadline_ms == 1.0
        assert info.value.elapsed_ms == pytest.approx(10000.0)

    def test_no_trip_before_the_deadline(self):
        clock = FakeClock()
        guard = ExecutionGuard(deadline_ms=1000.0, clock=clock)
        clock.advance(0.5)
        for _ in range(3 * _CLOCK_CHECK_EVERY):
            guard.tick()
        assert not guard.expired()

    def test_check_trips_immediately_without_batching(self):
        clock = FakeClock()
        guard = ExecutionGuard(deadline_ms=1.0, clock=clock)
        clock.advance(1.0)
        guard.tick()  # a single tick does not reach the batch boundary
        with pytest.raises(DeadlineExceededError):
            guard.check()

    def test_expired_is_non_raising(self):
        clock = FakeClock()
        guard = ExecutionGuard(deadline_ms=1.0, clock=clock)
        assert not guard.expired()
        clock.advance(1.0)
        assert guard.expired()

    def test_elapsed_and_remaining(self):
        clock = FakeClock()
        guard = ExecutionGuard(deadline_ms=1000.0, clock=clock)
        clock.advance(0.25)
        assert guard.elapsed_ms() == pytest.approx(250.0)
        assert guard.remaining_ms() == pytest.approx(750.0)

    def test_remaining_is_none_without_deadline(self):
        guard = ExecutionGuard(max_steps=5)
        assert guard.remaining_ms() is None


class TestValidation:
    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            ExecutionGuard(deadline_ms=-1.0)

    def test_negative_step_budget_rejected(self):
        with pytest.raises(ValueError):
            ExecutionGuard(max_steps=-1)

    def test_nan_deadline_rejected(self):
        """A NaN deadline would never expire."""
        with pytest.raises(
            ConfigError, match=r"ExecutionGuard\(deadline_ms=nan\)"
        ):
            ExecutionGuard(deadline_ms=float("nan"))


class TestErrorType:
    def test_is_a_typed_repro_error(self):
        guard = ExecutionGuard(max_steps=0)
        with pytest.raises(ReproError):
            guard.tick()
        with pytest.raises(ResilienceError):
            guard.tick()

    def test_message_names_both_limits(self):
        guard = ExecutionGuard(deadline_ms=5.0, max_steps=3)
        with pytest.raises(DeadlineExceededError, match="step budget 3"):
            guard.tick(steps=4)


class TestGuardScoping:
    def test_no_guard_by_default(self):
        assert current_guard() is None

    def test_guarded_installs_and_restores(self):
        guard = ExecutionGuard(max_steps=5)
        with guarded(guard):
            assert current_guard() is guard
        assert current_guard() is None

    def test_innermost_guard_wins(self):
        outer = ExecutionGuard(max_steps=5)
        inner = ExecutionGuard(max_steps=7)
        with guarded(outer):
            with guarded(inner):
                assert current_guard() is inner
            assert current_guard() is outer

    def test_guarded_none_is_a_noop_scope(self):
        with guarded(None) as installed:
            assert installed is None
            assert current_guard() is None

    def test_restored_even_after_a_trip(self):
        guard = ExecutionGuard(max_steps=0)
        with pytest.raises(DeadlineExceededError):
            with guarded(guard):
                guard.tick()
        assert current_guard() is None

    def test_guards_are_thread_local(self):
        import threading

        seen = []
        with guarded(ExecutionGuard(max_steps=5)):
            thread = threading.Thread(
                target=lambda: seen.append(current_guard())
            )
            thread.start()
            thread.join()
        assert seen == [None]


class TestDeadlineFromEnv:
    def test_unset_means_none(self, monkeypatch):
        monkeypatch.delenv(DEADLINE_ENV_VAR, raising=False)
        assert deadline_from_env() is None

    def test_blank_means_none(self, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV_VAR, "   ")
        assert deadline_from_env() is None

    def test_value_parsed_as_float(self, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV_VAR, "1500")
        assert deadline_from_env() == 1500.0

    def test_malformed_value_raises(self, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV_VAR, "soon")
        with pytest.raises(ValueError):
            deadline_from_env()
