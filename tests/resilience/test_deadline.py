"""Deadlines and step budgets threaded through the engine."""

import re

import pytest

from repro.engine.engine import Engine
from repro.errors import DeadlineExceededError, ReproError
from repro.kernel.config import BULK, NAIVE, use_kernel
from repro.resilience.guard import (
    DEADLINE_ENV_VAR,
    ExecutionGuard,
    guarded,
)


@pytest.fixture(autouse=True)
def _hermetic_cache(monkeypatch):
    """Exact counter assertions: an ambient store backend could serve
    the space from disk and skip the guarded builder."""
    monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_STORE_URL", raising=False)


@pytest.mark.parametrize("kernel", [BULK, NAIVE])
class TestStepBudgetThroughEngine:
    def test_enumeration_trips_the_budget(self, two_unary, kernel):
        engine = Engine(max_steps=1)
        with use_kernel(kernel):
            with pytest.raises(DeadlineExceededError) as info:
                engine.space(two_unary.schema, two_unary.assignment)
        assert info.value.max_steps == 1
        assert engine.stats()["artifacts"]["memory"]["space"]["deadline_hits"] == 1
        assert engine.stats()["artifacts"]["memory"]["space"]["degradations"] == 0

    def test_generous_budget_still_completes(self, two_unary, kernel):
        engine = Engine(max_steps=10_000_000)
        with use_kernel(kernel):
            space = engine.space(two_unary.schema, two_unary.assignment)
        assert len(space.states) > 0
        assert engine.stats()["artifacts"]["memory"]["space"]["deadline_hits"] == 0


class TestWallClockThroughEngine:
    def test_constructor_deadline(self, two_unary, monkeypatch):
        # Check the clock on every tick so the zero deadline trips
        # deterministically even on a tiny universe.
        monkeypatch.setattr("repro.resilience.guard._CLOCK_CHECK_EVERY", 1)
        engine = Engine(deadline_ms=0.0)
        with pytest.raises(DeadlineExceededError) as info:
            engine.space(two_unary.schema, two_unary.assignment)
        assert info.value.deadline_ms == 0.0
        assert engine.stats()["artifacts"]["memory"]["space"]["deadline_hits"] == 1

    def test_environment_deadline(self, two_unary, monkeypatch):
        monkeypatch.setattr("repro.resilience.guard._CLOCK_CHECK_EVERY", 1)
        monkeypatch.setenv(DEADLINE_ENV_VAR, "0")
        engine = Engine()
        with pytest.raises(DeadlineExceededError):
            engine.space(two_unary.schema, two_unary.assignment)

    def test_constructor_overrides_environment(self, two_unary, monkeypatch):
        monkeypatch.setenv(DEADLINE_ENV_VAR, "0")
        engine = Engine(deadline_ms=60_000.0)
        space = engine.space(two_unary.schema, two_unary.assignment)
        assert len(space.states) > 0

    def test_malformed_environment_deadline_raises(
        self, two_unary, monkeypatch
    ):
        """A typo'd deadline must not silently mean "no deadline"."""
        monkeypatch.setenv(DEADLINE_ENV_VAR, "a-while")
        engine = Engine()
        with pytest.raises(ValueError):
            engine.space(two_unary.schema, two_unary.assignment)


class TestLimitsOutOfRange:
    """A deadline or step budget below 0 or NaN is a typed error naming
    the knob and the value: never a bare ``ValueError`` out of the first
    derivation, never a silent "no deadline"."""

    @pytest.mark.parametrize("raw", ["-5", "nan"])
    def test_environment_deadline(self, two_unary, monkeypatch, raw):
        monkeypatch.setenv(DEADLINE_ENV_VAR, raw)
        engine = Engine()
        with pytest.raises(ReproError, match=f"REPRO_DEADLINE_MS='{raw}'"):
            engine.space(two_unary.schema, two_unary.assignment)

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("deadline_ms", -5),
            ("deadline_ms", float("nan")),
            ("max_steps", -1),
        ],
    )
    def test_constructor_limit(self, knob, value):
        with pytest.raises(
            ReproError, match=re.escape(f"Engine({knob}={value!r})")
        ):
            Engine(**{knob: value})


class TestGuardScoping:
    def test_outer_guard_overrides_engine_limits(self, two_unary):
        """Nested derivations share the caller's budget: an explicit
        unlimited guard suspends the engine's own step budget."""
        engine = Engine(max_steps=1)
        with guarded(ExecutionGuard()):
            space = engine.space(two_unary.schema, two_unary.assignment)
        assert len(space.states) > 0
        assert engine.stats()["artifacts"]["memory"]["space"]["deadline_hits"] == 0

    def test_outer_budget_spans_nested_derivations(self, two_unary):
        engine = Engine()
        outer = ExecutionGuard(max_steps=1)
        with guarded(outer):
            with pytest.raises(DeadlineExceededError):
                engine.space(two_unary.schema, two_unary.assignment)
        assert outer.steps > outer.max_steps

    def test_memoized_artifacts_need_no_budget(self, two_unary):
        """A cache hit must not be charged against a tiny budget."""
        engine = Engine()
        space = engine.space(two_unary.schema, two_unary.assignment)
        engine.max_steps = 0
        again = engine.space(two_unary.schema, two_unary.assignment)
        assert again is space


class TestBudgetErrorPayload:
    @pytest.mark.parametrize("kernel", [BULK, NAIVE])
    def test_too_large_error_names_schema_and_budget(
        self, two_unary, kernel
    ):
        """Satellite: the budget error is actionable under both kernel
        modes -- it names the schema and the exceeded budget."""
        from repro.errors import StateSpaceTooLargeError

        engine = Engine()
        with use_kernel(kernel):
            with pytest.raises(StateSpaceTooLargeError) as info:
                engine.space(
                    two_unary.schema, two_unary.assignment, max_candidates=2
                )
        message = str(info.value)
        assert repr(two_unary.schema.name) in message
        assert "budget of 2" in message
        assert engine.stats()["artifacts"]["memory"]["space"]["degradations"] == 0
