"""Unit tests for :mod:`repro.errors` (hierarchy and payloads)."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_is_repro_error(self):
        for name in (
            "SchemaError",
            "ArityError",
            "UnknownRelationError",
            "UnknownAttributeError",
            "TypeAlgebraError",
            "EvaluationError",
            "IllegalInstanceError",
            "ConstraintViolation",
            "EnumerationError",
            "StateSpaceTooLargeError",
            "NotSurjectiveError",
            "NotStrongError",
            "NotAComplementError",
            "NotComparableError",
            "UpdateRejected",
            "NoSolutionError",
            "AmbiguousSolutionError",
            "PosetError",
            "NotABooleanAlgebraError",
            "ResilienceError",
            "DeadlineExceededError",
            "KernelFailureError",
            "UnexpectedFailureError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError), name

    def test_schema_error_family(self):
        assert issubclass(errors.ArityError, errors.SchemaError)
        assert issubclass(errors.UnknownRelationError, errors.SchemaError)
        assert issubclass(errors.UnknownAttributeError, errors.SchemaError)

    def test_constraint_violation_is_illegal_instance(self):
        assert issubclass(
            errors.ConstraintViolation, errors.IllegalInstanceError
        )

    def test_no_solution_is_rejection(self):
        assert issubclass(errors.NoSolutionError, errors.UpdateRejected)

    def test_too_large_is_enumeration_error(self):
        assert issubclass(
            errors.StateSpaceTooLargeError, errors.EnumerationError
        )

    def test_resilience_error_family(self):
        for name in (
            "DeadlineExceededError",
            "KernelFailureError",
            "UnexpectedFailureError",
        ):
            assert issubclass(
                getattr(errors, name), errors.ResilienceError
            ), name


class TestPayloads:
    def test_update_rejected_reason(self):
        exc = errors.UpdateRejected("nope", reason="testing")
        assert exc.reason == "testing"
        assert "nope" in str(exc)

    def test_update_rejected_default_reason(self):
        assert errors.UpdateRejected("nope").reason == ""

    def test_no_solution_reason(self):
        assert errors.NoSolutionError("x").reason == "no-solution"

    def test_illegal_instance_violations(self):
        exc = errors.IllegalInstanceError("bad", violations=("c1", "c2"))
        assert exc.violations == ("c1", "c2")

    def test_not_strong_carries_analysis(self):
        marker = object()
        exc = errors.NotStrongError("not strong", analysis=marker)
        assert exc.analysis is marker

    def test_deadline_exceeded_payload(self):
        exc = errors.DeadlineExceededError(
            "too slow",
            elapsed_ms=12.5,
            deadline_ms=10.0,
            steps=2048,
            max_steps=1024,
        )
        assert exc.elapsed_ms == 12.5
        assert exc.deadline_ms == 10.0
        assert exc.steps == 2048
        assert exc.max_steps == 1024

    def test_kernel_failure_payload(self):
        exc = errors.KernelFailureError(
            "both rungs failed",
            kind="analysis",
            bulk_traceback="tb-bulk",
            naive_traceback="tb-naive",
        )
        assert exc.kind == "analysis"
        assert exc.bulk_traceback == "tb-bulk"
        assert exc.naive_traceback == "tb-naive"

    def test_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.PosetError("anything")
