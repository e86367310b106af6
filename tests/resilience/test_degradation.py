"""The degradation ladder: bulk -> naive -> typed failure."""

import pytest

from repro.core.strong import analyze_view
from repro.decomposition.projections import projection_view
from repro.engine.engine import Engine
from repro.errors import (
    KernelFailureError,
    ReproError,
    ResilienceError,
    StateSpaceTooLargeError,
)
from repro.kernel.config import BULK, NAIVE, use_kernel
from repro.resilience.faults import FaultPlan, FaultRule, inject


@pytest.fixture(autouse=True)
def _hermetic_cache(monkeypatch):
    """Exact counter assertions: an ambient store backend could serve
    artifacts from disk and skip the degradation ladder."""
    monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_STORE_URL", raising=False)


def bulk_analysis_fault():
    return FaultPlan(
        seed=7, rules=(FaultRule("kernel.analysis", kernel=BULK),)
    )


class TestDegradedAnalysis:
    def test_bulk_crash_degrades_to_naive(self, small_chain, small_space):
        engine = Engine()
        view = projection_view(small_chain, ("A", "B", "D"))
        with use_kernel(BULK), inject(bulk_analysis_fault()):
            degraded = engine.analysis(view, small_space)
        assert engine.stats()["artifacts"]["memory"]["analysis"]["degradations"] == 1

        with use_kernel(NAIVE):
            clean = analyze_view(view, small_space)
        assert degraded.is_strong == clean.is_strong
        assert degraded.is_monotone == clean.is_monotone
        assert degraded.admits_least_preimages == clean.admits_least_preimages
        assert degraded.theta == clean.theta
        assert degraded.sharp == clean.sharp

    def test_degraded_artifact_is_cached_under_its_original_key(
        self, small_chain, small_space
    ):
        """The naive-built artifact answers later bulk requests: the
        kernels are semantically equivalent (enforced by the kernel
        equivalence suite), so the key need not change."""
        engine = Engine()
        view = projection_view(small_chain, ("A", "B", "D"))
        with use_kernel(BULK), inject(bulk_analysis_fault()):
            degraded = engine.analysis(view, small_space)
        with use_kernel(BULK):  # same key, no faults active
            again = engine.analysis(view, small_space)
        assert again is degraded
        counters = engine.stats()["artifacts"]["memory"]["analysis"]
        assert counters["hits"] == 1
        assert counters["degradations"] == 1


class TestBothRungsFailing:
    def test_typed_failure_with_both_tracebacks(self, two_unary):
        plan = FaultPlan(rules=(FaultRule("enumeration.step"),))
        engine = Engine()
        with use_kernel(BULK), inject(plan):
            with pytest.raises(KernelFailureError) as info:
                engine.space(two_unary.schema, two_unary.assignment)
        error = info.value
        assert error.kind == "space"
        assert "under the bulk kernel" in str(error)
        assert "InjectedFault" in error.bulk_traceback
        assert "InjectedFault" in error.naive_traceback
        # The failed retry still counts as a degradation attempt.
        assert engine.stats()["artifacts"]["memory"]["space"]["degradations"] == 1

    def test_kernel_failure_is_a_typed_error(self):
        assert issubclass(KernelFailureError, ResilienceError)
        assert issubclass(KernelFailureError, ReproError)


class TestNaiveModeFailures:
    def test_no_rung_below_the_naive_kernel(self, two_unary):
        plan = FaultPlan(rules=(FaultRule("enumeration.step", kernel=NAIVE),))
        engine = Engine()
        with use_kernel(NAIVE):
            with inject(plan):
                with pytest.raises(
                    KernelFailureError, match="no degradation rung"
                ) as info:
                    engine.space(two_unary.schema, two_unary.assignment)
        assert info.value.bulk_traceback == ""
        assert "InjectedFault" in info.value.naive_traceback
        assert engine.stats()["artifacts"]["memory"]["space"]["degradations"] == 0


class TestTypedErrorsPassThrough:
    def test_repro_errors_are_not_retried(self, two_unary):
        """A typed error is already fail-closed; degrading would only
        re-run a derivation that fails for semantic reasons."""
        engine = Engine()
        with pytest.raises(StateSpaceTooLargeError):
            engine.space(
                two_unary.schema, two_unary.assignment, max_candidates=2
            )
        assert engine.stats()["artifacts"]["memory"]["space"]["degradations"] == 0


class TestDegradationAcrossExperiments:
    def test_forced_bulk_failure_preserves_every_verdict(self):
        """Acceptance: with every bulk strong-analysis forced to
        crash, E1-E12 all degrade to the naive kernel and report the
        same verdicts as a clean run (all PASS -- the clean-run
        verdicts are pinned by the harness suite)."""
        from repro.harness.experiments import ALL_EXPERIMENTS, run_experiment

        engine = Engine()
        with use_kernel(BULK), inject(bulk_analysis_fault()):
            results = [
                run_experiment(experiment_id, engine=engine)
                for experiment_id in ALL_EXPERIMENTS
            ]
        assert [r.passed for r in results] == [True] * len(results)
        total_degradations = sum(
            counters["degradations"]
            for counters in engine.stats()["artifacts"]["memory"].values()
        )
        assert total_degradations > 0
